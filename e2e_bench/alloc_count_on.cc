// Replaces the global allocation functions with counting wrappers around
// malloc/free. Counters are spread over padded slots picked by thread, so
// the fan-out's threads do not contend on one cache line.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

constexpr int kSlots = 16;
struct alignas(64) Slot {
  std::atomic<uint64_t> n{0};
};
Slot g_slots[kSlots];

void Count() {
  // Each thread's TLS block has its own address; no dynamic TLS init, so
  // this is safe inside operator new.
  static thread_local char tag;
  const auto slot = (reinterpret_cast<uintptr_t>(&tag) >> 6) % kSlots;
  g_slots[slot].n.fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count();
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace e2e {

bool AllocCounting() { return true; }

uint64_t AllocCount() {
  uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace e2e

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  Count();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  Count();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
