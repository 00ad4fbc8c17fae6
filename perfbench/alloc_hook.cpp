// Global operator new/delete replacements that count allocations per
// thread. The count is a plain thread-local increment, so the hook costs
// the same on every run (traced or not) and never contends across the
// sweep's worker threads. The ledger reads it around single-threaded
// calls (serial sweep, in-process request handling, delta ticks), where
// the calling thread's counter is the whole story.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;

void* allocate(std::size_t size) {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* allocate_aligned(std::size_t size, std::align_val_t alignment) {
  ++t_allocations;
  const std::size_t align = static_cast<std::size_t>(alignment);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded == 0 ? align : rounded);
}
}  // namespace

namespace perfbench {
std::uint64_t thread_allocations() { return t_allocations; }
}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* p = allocate_aligned(size, alignment)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return ::operator new(size, alignment);
}
void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return allocate_aligned(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return allocate_aligned(size, alignment);
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
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
