// Replaced global operator new/delete of the benchmark binary: counts
// heap allocations and requested bytes while counting is switched on
// (the traced half of a --trace 1 run).  Storage comes from malloc, as
// with the default operators, so the hook changes no allocation pattern.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

// Counts land in one of these slots (thread index modulo the slot count),
// so the four threads of rollout_durable do not contend on one line.
constexpr std::size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> bytes{0};
};

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_next_slot{0};
Slot g_slots[kSlots];

void Count(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  thread_local const std::size_t slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[slot].allocs.fetch_add(1, std::memory_order_relaxed);
  g_slots[slot].bytes.fetch_add(size, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count(size);
  void* p = nullptr;
  const auto alignment = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace perfbench {

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts ReadAllocCounts() {
  AllocCounts counts;
  for (const Slot& slot : g_slots) {
    counts.allocs += slot.allocs.load(std::memory_order_relaxed);
    counts.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return counts;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
