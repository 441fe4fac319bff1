/**
 * @file
 * Functional backing store for the simulated global memory.
 */

#ifndef SIWI_MEM_MEMORY_IMAGE_HH
#define SIWI_MEM_MEMORY_IMAGE_HH

#include <array>
#include <map>
#include <vector>

#include "common/types.hh"

namespace siwi::mem {

/**
 * Sparse, paged memory image.
 *
 * The ISA only issues naturally-aligned 4-byte accesses, so the
 * image stores 32-bit words in fixed-size, zero-filled pages that
 * are allocated on first write and kept in an ordered page table.
 * A one-page lookup cache serves the streaming accesses workloads
 * and the LSU make; reads update it, so an image must not be read
 * from two threads at once. Unwritten memory reads as zero, which
 * workloads rely on for output buffers.
 */
class MemoryImage
{
  public:
    /** Words per page (4 KiB pages). */
    static constexpr Addr page_words = 1024;

    /** Read a 32-bit word at 4-byte-aligned address @p addr. */
    u32 read32(Addr addr) const;

    /** Write a 32-bit word at 4-byte-aligned address @p addr. */
    void write32(Addr addr, u32 value);

    float readF32(Addr addr) const;
    void writeF32(Addr addr, float value);

    /** Bulk-write a span of words starting at @p base. */
    void writeWords(Addr base, const std::vector<u32> &words);
    void writeFloats(Addr base, const std::vector<float> &floats);

    /** Bulk-read @p count words starting at @p base. */
    std::vector<u32> readWords(Addr base, size_t count) const;
    std::vector<float> readFloats(Addr base, size_t count) const;

    /** Forget every write: all memory reads as zero again. */
    void clear();

  private:
    using Page = std::array<u32, page_words>;

    /** Page @p number, or null when nothing was written there. */
    const Page *findPage(Addr number) const;

    /** Page number -> page (map nodes keep pages in place). */
    std::map<Addr, Page> pages_;
    /** Lookup cache: the last page found, or null. */
    mutable Addr cached_number_ = 0;
    mutable Page *cached_page_ = nullptr;
};

} // namespace siwi::mem

#endif // SIWI_MEM_MEMORY_IMAGE_HH
