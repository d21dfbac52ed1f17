// Sparse byte-addressed memory image. Pages are allocated lazily so workloads
// can use large, widely spread address ranges without committing host memory
// for untouched regions. Unwritten bytes read as zero.
//
// Every lookup goes through a flat page index: open addressing over a
// power-of-two slot array, a multiplicative hash and linear probing, so a read
// usually touches one slot before the page itself. A page enters the index
// when it is created and leaves only through Clear(). The index does not own
// the pages; a hash map does. Its small nodes sit between the 4 KiB pages on
// the heap, so a freed image does not coalesce into the heap top, where glibc
// would trim it and the next machine would page-fault it in again.
#ifndef YIELDHIDE_SRC_SIM_MEMORY_H_
#define YIELDHIDE_SRC_SIM_MEMORY_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace yieldhide::sim {

class SparseMemory {
 public:
  static constexpr uint64_t kPageBits = 12;
  static constexpr uint64_t kPageSize = 1ull << kPageBits;

  uint64_t Read64(uint64_t addr) const {
    // Misaligned reads spanning a page boundary are assembled bytewise; the
    // aligned fast path covers virtually all workload traffic.
    if ((addr & 7) == 0 || (addr & (kPageSize - 1)) <= kPageSize - 8) {
      const uint8_t* page = FindPage(addr);
      if (page == nullptr) {
        return 0;
      }
      uint64_t value;
      std::memcpy(&value, page + (addr & (kPageSize - 1)), sizeof(value));
      return value;
    }
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(ReadByte(addr + i)) << (8 * i);
    }
    return value;
  }

  void Write64(uint64_t addr, uint64_t value) {
    if ((addr & (kPageSize - 1)) <= kPageSize - 8) {
      uint8_t* page = EnsurePage(addr);
      std::memcpy(page + (addr & (kPageSize - 1)), &value, sizeof(value));
      return;
    }
    for (int i = 0; i < 8; ++i) {
      WriteByte(addr + i, static_cast<uint8_t>(value >> (8 * i)));
    }
  }

  uint8_t ReadByte(uint64_t addr) const {
    const uint8_t* page = FindPage(addr);
    return page == nullptr ? 0 : page[addr & (kPageSize - 1)];
  }

  void WriteByte(uint64_t addr, uint8_t value) {
    EnsurePage(addr)[addr & (kPageSize - 1)] = value;
  }

  // Starts moving the host memory behind simulated `addr` into the host's
  // caches, so the read a simulated PREFETCH announces does not stall the
  // simulator. Host-only: allocates nothing and changes no simulated state.
  void HostPrefetch(uint64_t addr) const {
    if (const uint8_t* page = FindPage(addr)) {
      __builtin_prefetch(page + (addr & (kPageSize - 1)));
    }
  }

  size_t resident_pages() const { return pages_.size(); }
  size_t resident_bytes() const { return pages_.size() * kPageSize; }

  void Clear() {
    pages_.clear();
    index_.clear();
  }

 private:
  // An empty slot has data == nullptr and page 0, so a probe for page 0 that
  // reaches it correctly answers "absent".
  struct Slot {
    uint64_t page = 0;
    uint8_t* data = nullptr;
  };

  static constexpr uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ull;
  static constexpr size_t kMinSlots = 16;

  size_t HomeSlot(uint64_t page) const { return (page * kHashMultiplier) >> index_shift_; }

  // The page holding `addr`, or nullptr if it was never written.
  uint8_t* FindPage(uint64_t addr) const {
    if (index_.empty()) {
      return nullptr;
    }
    const uint64_t page = addr >> kPageBits;
    const size_t mask = index_.size() - 1;
    for (size_t i = HomeSlot(page);; i = (i + 1) & mask) {
      const Slot& slot = index_[i];
      if (slot.page == page || slot.data == nullptr) {
        return slot.data;
      }
    }
  }

  uint8_t* EnsurePage(uint64_t addr) {
    if (uint8_t* data = FindPage(addr)) {
      return data;
    }
    const uint64_t page = addr >> kPageBits;
    auto& owned = pages_[page];
    owned = std::make_unique<uint8_t[]>(kPageSize);  // value-initialized: zeroed
    if (2 * pages_.size() > index_.size()) {
      GrowIndex();
    }
    Insert(page, owned.get());
    return owned.get();
  }

  // Doubles the slot array (to at least kMinSlots), keeping it at most half
  // full, and re-inserts every entry.
  void GrowIndex() {
    std::vector<Slot> old = std::move(index_);
    index_.assign(std::max(kMinSlots, 2 * old.size()), Slot{});
    index_shift_ = 64 - std::countr_zero(index_.size());
    for (const Slot& slot : old) {
      if (slot.data != nullptr) {
        Insert(slot.page, slot.data);
      }
    }
  }

  void Insert(uint64_t page, uint8_t* data) {
    const size_t mask = index_.size() - 1;
    size_t i = HomeSlot(page);
    while (index_[i].data != nullptr) {
      i = (i + 1) & mask;
    }
    index_[i] = Slot{page, data};
  }

  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;  // owner
  std::vector<Slot> index_;  // empty, or a power of two of slots
  int index_shift_ = 64;  // 64 - log2(index_.size()) once the index has slots
};

}  // namespace yieldhide::sim

#endif  // YIELDHIDE_SRC_SIM_MEMORY_H_
