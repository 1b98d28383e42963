#include "vm/runtime/heap.h"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace jrs {

/**
 * An anonymous private mapping, unmapped on destruction. The kernel
 * hands out its pages zero-filled on first touch, so mapping the full
 * arena commits nothing up front. (calloc would skip its memset only
 * for fresh mmap'd chunks, which glibc decides by size and a dynamic
 * threshold; mapping directly makes lazy commit unconditional.)
 */
class Heap::Mapping {
  public:
    explicit Mapping(std::size_t bytes) : bytes_(bytes)
    {
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                         -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<std::uint8_t *>(p);
    }
    ~Mapping() { ::munmap(data_, bytes_); }

    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    std::uint8_t *data() const { return data_; }

  private:
    std::uint8_t *data_ = nullptr;
    std::size_t bytes_;
};

namespace {

/** Header layout: bits 0..15 klass id, bits 16..18 array kind,
 *  bit 31 array flag. */
constexpr std::uint32_t kArrayFlag = 0x8000'0000u;

std::uint32_t
makeHeader(ClassId cls, bool is_array, ArrayKind kind)
{
    std::uint32_t h = cls;
    if (is_array) {
        h |= kArrayFlag;
        h |= static_cast<std::uint32_t>(kind) << 16;
    }
    return h;
}

/** Arena bytes rounded up so the ref bitmap after them is 8-aligned. */
std::size_t
bitmapOffset(std::size_t capacity_bytes)
{
    return (capacity_bytes + 7) & ~std::size_t{7};
}

std::size_t
bitmapBytes(std::size_t capacity_bytes)
{
    return ((capacity_bytes / 4 + 63) / 64 + 1) * sizeof(std::uint64_t);
}

} // namespace

Heap::Heap(std::size_t capacity_bytes)
    : capacity_(capacity_bytes),
      mapping_(std::make_unique<Mapping>(bitmapOffset(capacity_bytes)
                                         + bitmapBytes(capacity_bytes))),
      storage_(mapping_->data()),
      refBits_(reinterpret_cast<std::uint64_t *>(
          mapping_->data() + bitmapOffset(capacity_bytes))),
      cursor_(16),  // offset 0 reserved so a null ref is never valid
      allocLimit_(capacity_bytes)
{
}

Heap::~Heap() = default;

std::size_t
Heap::offsetOf(SimAddr addr, std::size_t width) const
{
    if (addr < seg::kHeap || addr - seg::kHeap >= capacity_
        || capacity_ - (addr - seg::kHeap) < width)
        throw VmError("heap access out of range");
    return static_cast<std::size_t>(addr - seg::kHeap);
}

bool
Heap::canAllocate(std::size_t bytes) const
{
    const std::size_t aligned = (bytes + 7) & ~std::size_t{7};
    if (cursor_ + aligned <= allocLimit_)
        return true;
    for (const FreeBlock &b : freeList_)
        if (b.size >= aligned)
            return true;
    return false;
}

SimAddr
Heap::bump(std::size_t bytes)
{
    const std::size_t aligned = (bytes + 7) & ~std::size_t{7};

    // First-fit from the sweep's free list (empty without a collector,
    // so the un-collected path is the original bump allocator).
    for (auto it = freeList_.begin(); it != freeList_.end(); ++it) {
        if (it->size < aligned)
            continue;
        const std::size_t off = it->off;
        if (it->size - aligned >= 8) {
            it->off += static_cast<std::uint32_t>(aligned);
            it->size -= static_cast<std::uint32_t>(aligned);
            // The remainder must stay walkable for the next sweep.
            writeFiller(it->off, it->size);
        } else {
            freeList_.erase(it);
        }
        clearRange(off, aligned);
        totalAllocated_ += aligned;
        ++allocCount_;
        return seg::kHeap + off;
    }

    if (cursor_ + aligned > allocLimit_)
        throw VmError("heap exhausted");
    const SimAddr addr = seg::kHeap + cursor_;
    cursor_ += aligned;
    totalAllocated_ += aligned;
    ++allocCount_;
    return addr;
}

SimAddr
Heap::allocObject(ClassId cls, std::uint16_t num_fields)
{
    const SimAddr addr = bump(8 + 4u * num_fields);
    storeU32(addr, makeHeader(cls, false, ArrayKind::Int));
    storeU32(addr + 4, 0);  // lockword
    return addr;
}

SimAddr
Heap::allocArray(ArrayKind kind, std::int32_t length)
{
    if (length < 0)
        throw VmError("negative array size reached allocator");
    const std::size_t bytes = 12
        + static_cast<std::size_t>(length) * arrayElemSize(kind);
    const SimAddr addr = bump(bytes);
    storeU32(addr, makeHeader(0, true, kind));
    storeU32(addr + 4, 0);
    storeU32(addr + 8, static_cast<std::uint32_t>(length));
    return addr;
}

std::uint32_t
Heap::loadU32(SimAddr addr) const
{
    std::uint32_t v;
    std::memcpy(&v, &storage_[offsetOf(addr, sizeof(v))], sizeof(v));
    return v;
}

void
Heap::storeU32(SimAddr addr, std::uint32_t v)
{
    const std::size_t off = offsetOf(addr, sizeof(v));
    std::memcpy(&storage_[off], &v, sizeof(v));
    setRefBit(off, false);
}

std::uint16_t
Heap::loadU16(SimAddr addr) const
{
    std::uint16_t v;
    std::memcpy(&v, &storage_[offsetOf(addr, sizeof(v))], sizeof(v));
    return v;
}

void
Heap::storeU16(SimAddr addr, std::uint16_t v)
{
    const std::size_t off = offsetOf(addr, sizeof(v));
    std::memcpy(&storage_[off], &v, sizeof(v));
    setRefBit(off, false);
}

std::uint8_t
Heap::loadU8(SimAddr addr) const
{
    return storage_[offsetOf(addr, 1)];
}

void
Heap::storeU8(SimAddr addr, std::uint8_t v)
{
    const std::size_t off = offsetOf(addr, 1);
    storage_[off] = v;
    setRefBit(off, false);
}

ClassId
Heap::klassOf(SimAddr obj) const
{
    return static_cast<ClassId>(loadU32(obj) & 0xffffu);
}

bool
Heap::isArray(SimAddr obj) const
{
    return (loadU32(obj) & kArrayFlag) != 0;
}

ArrayKind
Heap::arrayKindOf(SimAddr arr) const
{
    return static_cast<ArrayKind>((loadU32(arr) >> 16) & 0x7u);
}

std::int32_t
Heap::arrayLength(SimAddr arr) const
{
    return static_cast<std::int32_t>(loadU32(arr + 8));
}

SimAddr
Heap::elemAddr(SimAddr arr, std::int32_t index) const
{
    return arr + 12
        + static_cast<SimAddr>(index)
        * arrayElemSize(arrayKindOf(arr));
}

bool
Heap::validRef(SimAddr addr) const
{
    return addr >= seg::kHeap + 16 && addr < seg::kHeap + cursor_;
}

std::uint64_t
Heap::contentHash() const
{
    std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
    for (std::size_t i = 0; i < cursor_; ++i) {
        h ^= storage_[i];
        h *= 1099511628211ull;  // FNV prime
    }
    return h;
}

void
Heap::clearRange(std::size_t off, std::size_t bytes)
{
    if (bytes == 0)
        return;
    std::memset(&storage_[off], 0, bytes);
    // Words [first, last] overlap the range; mask the edge bitmap
    // words and zero the ones in between whole.
    const std::size_t first = off >> 2;
    const std::size_t last = (off + bytes - 1) >> 2;
    const std::uint64_t lo = ~std::uint64_t{0} << (first & 63);
    const std::uint64_t hi = ~std::uint64_t{0} >> (63 - (last & 63));
    const std::size_t fw = first >> 6;
    const std::size_t lw = last >> 6;
    if (fw == lw) {
        refBits_[fw] &= ~(lo & hi);
        return;
    }
    refBits_[fw] &= ~lo;
    std::memset(&refBits_[fw + 1], 0,
                (lw - fw - 1) * sizeof(std::uint64_t));
    refBits_[lw] &= ~hi;
}

void
Heap::writeFiller(std::size_t off, std::size_t size)
{
    const SimAddr addr = seg::kHeap + off;
    if (size >= 16) {
        storeU32(addr, makeHeader(0, true, ArrayKind::Byte));
        storeU32(addr + 4, 0);
        storeU32(addr + 8, static_cast<std::uint32_t>(size - 12));
    } else {
        storeU32(addr, makeHeader(kGcFillerClassId, false,
                                  ArrayKind::Int));
        storeU32(addr + 4, 0);
    }
}

void
Heap::setFreeBlocks(std::vector<FreeBlock> blocks)
{
    for (const FreeBlock &b : blocks) {
        clearRange(b.off, b.size);
        writeFiller(b.off, b.size);
    }
    freeList_ = std::move(blocks);
}

void
Heap::resetWindow(std::size_t base, std::size_t cursor,
                  std::size_t limit)
{
    if (base < 16 || cursor < base || limit < cursor
        || limit > capacity_)
        throw VmError("bad heap allocation window");
    allocBase_ = base;
    cursor_ = cursor;
    allocLimit_ = limit;
    freeList_.clear();
}

void
Heap::rawCopy(std::size_t dst_off, std::size_t src_off,
              std::size_t bytes)
{
    std::memmove(&storage_[dst_off], &storage_[src_off], bytes);
}

} // namespace jrs
