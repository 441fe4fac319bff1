/**
 * @file
 * MemoryImage tests: the paged functional store reads unwritten
 * words as zero, keeps page neighbours apart, and never serves a
 * stale page from its lookup cache.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hh"
#include "mem/memory_image.hh"

namespace siwi::mem {
namespace {

constexpr Addr page_bytes = MemoryImage::page_words * 4;

TEST(MemoryImage, UnwrittenReadsZero)
{
    MemoryImage m;
    EXPECT_EQ(m.read32(0), 0u);
    EXPECT_EQ(m.read32(0x400000), 0u);
    m.write32(0x1000, 7);
    // Same page, other words; and a page never touched.
    EXPECT_EQ(m.read32(0x1004), 0u);
    EXPECT_EQ(m.read32(0xffc), 0u);
    EXPECT_EQ(m.read32(0x800000), 0u);
    EXPECT_EQ(m.read32(0x1000), 7u);
}

TEST(MemoryImage, NeighboursAcrossPageBoundary)
{
    MemoryImage m;
    const Addr boundary = 5 * page_bytes;
    m.write32(boundary - 4, 0xaaaa);
    m.write32(boundary, 0xbbbb);
    EXPECT_EQ(m.read32(boundary - 4), 0xaaaau);
    EXPECT_EQ(m.read32(boundary), 0xbbbbu);
    EXPECT_EQ(m.read32(boundary - 8), 0u);
    EXPECT_EQ(m.read32(boundary + 4), 0u);
    // A bulk write straddling the boundary lands word for word.
    m.writeWords(boundary - 8, {1, 2, 3, 4});
    EXPECT_EQ(m.readWords(boundary - 8, 4),
              (std::vector<u32>{1, 2, 3, 4}));
}

TEST(MemoryImage, Overwrite)
{
    MemoryImage m;
    m.write32(0x2000, 1);
    m.write32(0x2000, 2);
    EXPECT_EQ(m.read32(0x2000), 2u);
    m.writeF32(0x2000, 1.5f);
    EXPECT_EQ(m.readF32(0x2000), 1.5f);
    m.write32(0x2000, 0);
    EXPECT_EQ(m.read32(0x2000), 0u);
}

TEST(MemoryImage, InterleavedPagesMatchReference)
{
    // Alternate between pages so the one-page lookup cache misses
    // constantly, against a word-keyed reference map.
    Rng rng(11);
    MemoryImage m;
    std::map<Addr, u32> ref;
    for (int i = 0; i < 20000; ++i) {
        Addr page = rng.below(64);
        Addr word = rng.below(u32(MemoryImage::page_words));
        Addr addr = page * page_bytes + word * 4;
        if (rng.below(2)) {
            u32 v = u32(rng.below(1u << 30));
            m.write32(addr, v);
            ref[addr] = v;
        } else {
            auto it = ref.find(addr);
            ASSERT_EQ(m.read32(addr), it == ref.end() ? 0 : it->second)
                << "address 0x" << std::hex << addr;
        }
    }
    for (const auto &[addr, v] : ref)
        ASSERT_EQ(m.read32(addr), v);
}

TEST(MemoryImage, ClearDropsCachedPage)
{
    MemoryImage m;
    m.write32(0x3000, 9);
    ASSERT_EQ(m.read32(0x3000), 9u); // page now cached
    m.clear();
    EXPECT_EQ(m.read32(0x3000), 0u);
    // Writing after clear allocates a fresh, zeroed page.
    m.write32(0x3004, 4);
    EXPECT_EQ(m.read32(0x3000), 0u);
    EXPECT_EQ(m.read32(0x3004), 4u);
}

} // namespace
} // namespace siwi::mem
