#include "core/registry.h"

#include <cassert>

#include "obs/metrics.h"

namespace dpg::core {

ShadowRegistry::~ShadowRegistry() {
  for (std::atomic<Mid*>& m : root_) {
    Mid* mid = m.load(std::memory_order_relaxed);
    if (mid == nullptr) continue;
    for (std::atomic<Leaf*>& l : mid->slot) {
      delete l.load(std::memory_order_relaxed);
    }
    delete mid;
  }
}

ShadowRegistry& ShadowRegistry::global() {
  static ShadowRegistry* instance = [] {
    auto* reg = new ShadowRegistry();  // never destroyed: the SIGSEGV
    // handler may outlive static teardown order.
    obs::register_counter_fn(
        "dpg_registry_node_bytes",
        +[](const void* ctx) noexcept -> std::uint64_t {
          return static_cast<const ShadowRegistry*>(ctx)->node_bytes();
        },
        reg);
    return reg;
  }();
  return *instance;
}

template <typename Node>
Node* ShadowRegistry::child(std::atomic<Node*>& link, bool create) {
  Node* node = link.load(std::memory_order_acquire);
  if (node != nullptr || !create) return node;
  auto* fresh = new Node();
  if (link.compare_exchange_strong(node, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    node_bytes_.fetch_add(sizeof(Node), std::memory_order_relaxed);
    return fresh;
  }
  delete fresh;  // lost the install race; `node` is the winner's
  return node;
}

std::atomic<const ObjectRecord*>* ShadowRegistry::slot_for(std::uintptr_t page,
                                                           bool create) {
  if ((page >> kAddressBits) != 0) return nullptr;
  const std::uintptr_t pn = page >> vm::kPageShift;
  Mid* mid = child(root_[pn >> (2 * kLevelBits)], create);
  if (mid == nullptr) return nullptr;
  Leaf* leaf = child(mid->slot[(pn >> kLevelBits) & kLevelMask], create);
  if (leaf == nullptr) return nullptr;
  return &leaf->slot[pn & kLevelMask];
}

void ShadowRegistry::insert(const ObjectRecord& rec) {
  // User VA never reaches 2^48 unless a mapping was hinted above it.
  assert(((rec.shadow_base + rec.span_length - 1) >> kAddressBits) == 0);
  for (std::uintptr_t page = rec.shadow_base;
       page < rec.shadow_base + rec.span_length; page += vm::kPageSize) {
    if (auto* slot = slot_for(page, true)) {
      slot->store(&rec, std::memory_order_release);
    }
  }
}

void ShadowRegistry::erase(const ObjectRecord& rec) noexcept {
  for (std::uintptr_t page = rec.shadow_base;
       page < rec.shadow_base + rec.span_length; page += vm::kPageSize) {
    if (auto* slot = slot_for(page, false)) {
      slot->store(nullptr, std::memory_order_release);
    }
  }
}

const ObjectRecord* ShadowRegistry::lookup(std::uintptr_t addr) const noexcept {
  // Async-signal-safe: three acquire loads, each pairing with the release
  // that published the node or record it reads.
  if ((addr >> kAddressBits) != 0) return nullptr;
  const std::uintptr_t pn = addr >> vm::kPageShift;
  const Mid* mid = root_[pn >> (2 * kLevelBits)].load(std::memory_order_acquire);
  if (mid == nullptr) return nullptr;
  const Leaf* leaf =
      mid->slot[(pn >> kLevelBits) & kLevelMask].load(std::memory_order_acquire);
  if (leaf == nullptr) return nullptr;
  return leaf->slot[pn & kLevelMask].load(std::memory_order_acquire);
}

std::size_t ShadowRegistry::entries() const noexcept {
  std::size_t n = 0;
  for (const std::atomic<Mid*>& m : root_) {
    const Mid* mid = m.load(std::memory_order_acquire);
    if (mid == nullptr) continue;
    for (const std::atomic<Leaf*>& l : mid->slot) {
      const Leaf* leaf = l.load(std::memory_order_acquire);
      if (leaf == nullptr) continue;
      for (const auto& slot : leaf->slot) {
        n += slot.load(std::memory_order_relaxed) != nullptr;
      }
    }
  }
  return n;
}

}  // namespace dpg::core
