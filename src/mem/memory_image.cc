#include "mem/memory_image.hh"

#include <bit>

#include "common/log.hh"

namespace siwi::mem {

namespace {

Addr
wordIndex(Addr addr)
{
    siwi_assert((addr & 3) == 0,
                "unaligned 32-bit access at 0x", std::hex, addr);
    return addr >> 2;
}

} // namespace

const MemoryImage::Page *
MemoryImage::findPage(Addr number) const
{
    if (cached_page_ && cached_number_ == number)
        return cached_page_;
    auto it = pages_.find(number);
    if (it == pages_.end())
        return nullptr;
    // The map is only mutated through non-const members, so the
    // cached pointer may be writable.
    cached_number_ = number;
    cached_page_ = const_cast<Page *>(&it->second);
    return cached_page_;
}

u32
MemoryImage::read32(Addr addr) const
{
    Addr word = wordIndex(addr);
    const Page *page = findPage(word / page_words);
    return page ? (*page)[word % page_words] : 0;
}

void
MemoryImage::write32(Addr addr, u32 value)
{
    Addr word = wordIndex(addr);
    Addr number = word / page_words;
    if (!findPage(number)) {
        // A new page is value-initialized: all zero.
        cached_number_ = number;
        cached_page_ = &pages_.try_emplace(number).first->second;
    }
    (*cached_page_)[word % page_words] = value;
}

void
MemoryImage::clear()
{
    pages_.clear();
    cached_page_ = nullptr;
}

float
MemoryImage::readF32(Addr addr) const
{
    return std::bit_cast<float>(read32(addr));
}

void
MemoryImage::writeF32(Addr addr, float value)
{
    write32(addr, std::bit_cast<u32>(value));
}

void
MemoryImage::writeWords(Addr base, const std::vector<u32> &words)
{
    for (size_t i = 0; i < words.size(); ++i)
        write32(base + Addr(i) * 4, words[i]);
}

void
MemoryImage::writeFloats(Addr base, const std::vector<float> &floats)
{
    for (size_t i = 0; i < floats.size(); ++i)
        writeF32(base + Addr(i) * 4, floats[i]);
}

std::vector<u32>
MemoryImage::readWords(Addr base, size_t count) const
{
    std::vector<u32> out(count);
    for (size_t i = 0; i < count; ++i)
        out[i] = read32(base + Addr(i) * 4);
    return out;
}

std::vector<float>
MemoryImage::readFloats(Addr base, size_t count) const
{
    std::vector<float> out(count);
    for (size_t i = 0; i < count; ++i)
        out[i] = readF32(base + Addr(i) * 4);
    return out;
}

} // namespace siwi::mem
