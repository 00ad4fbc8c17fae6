// Compressed binary (patricia) trie keyed by IP prefixes.
//
// This is the lookup structure behind both halves of the pipeline's data
// plane: mapping resolved IP addresses to the covering BGP prefixes
// (methodology step 3) and finding covering ROAs during RFC 6811 origin
// validation (step 4). IPv4 and IPv6 keys live in separate sub-tries.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/ip.hpp"
#include "net/prefix.hpp"

namespace ripki::trie {

template <typename V>
class PrefixTrie {
 public:
  struct Match {
    net::Prefix prefix;
    const V* value;
  };

  PrefixTrie() = default;

  /// Inserts or replaces the value stored at `prefix`.
  /// Returns a reference to the stored value.
  V& insert(const net::Prefix& prefix, V value) {
    Node* node = insert_node(root_for(prefix.family()), prefix);
    if (!node->value.has_value()) ++size_;
    node->value = std::move(value);
    return *node->value;
  }

  /// Returns the value stored exactly at `prefix`, if any.
  const V* find_exact(const net::Prefix& prefix) const {
    const Node* node = root_of(prefix.family());
    while (node != nullptr) {
      const int cpl = common_prefix_length(node->key, prefix);
      if (cpl < node->key.length()) return nullptr;
      if (node->key.length() == prefix.length())
        return node->value.has_value() ? &*node->value : nullptr;
      node = child_of(node, prefix.address().bit(node->key.length()));
    }
    return nullptr;
  }

  V* find_exact(const net::Prefix& prefix) {
    return const_cast<V*>(std::as_const(*this).find_exact(prefix));
  }

  /// All stored prefixes that cover `addr`, shortest first.
  std::vector<Match> covering(const net::IpAddress& addr) const {
    return covering(net::Prefix(addr, addr.width()));
  }

  /// All stored prefixes equal to or less specific than `target`,
  /// shortest first ("all covering prefixes" of methodology step 3).
  std::vector<Match> covering(const net::Prefix& target) const {
    std::vector<Match> out;
    for_each_covering(target, [&out](const net::Prefix& prefix, const V& value) {
      out.push_back({prefix, &value});
    });
    return out;
  }

  /// Calls `fn(prefix, value)` for each stored prefix covering `target`,
  /// shortest first — covering() without the result vector.
  template <typename Fn>
  void for_each_covering(const net::Prefix& target, Fn&& fn) const {
    const Node* node = root_of(target.family());
    while (node != nullptr && node->key.length() <= target.length()) {
      if (common_prefix_length(node->key, target) < node->key.length()) break;
      if (node->value.has_value()) fn(node->key, *node->value);
      if (node->key.length() == target.length()) break;
      node = child_of(node, target.address().bit(node->key.length()));
    }
  }

  /// Longest-prefix match for `addr`, or nullopt when nothing covers it.
  std::optional<Match> longest_match(const net::IpAddress& addr) const {
    auto all = covering(addr);
    if (all.empty()) return std::nullopt;
    return all.back();
  }

  /// Visits every (prefix, value) pair in bit order.
  void visit(const std::function<void(const net::Prefix&, const V&)>& fn) const {
    visit_node(v4_root_.get(), fn);
    visit_node(v6_root_.get(), fn);
  }

  /// Removes the value stored exactly at `prefix`, returning it. The node
  /// itself stays in place as a structural (valueless) split node — every
  /// traversal already skips valueless nodes, and keeping the shape means
  /// erase never invalidates sibling subtrees. Callers holding a Frozen
  /// image must refreeze after any erase/insert.
  std::optional<V> erase(const net::Prefix& prefix) {
    Node* node = nullptr;
    {
      const Node* found = root_of(prefix.family());
      while (found != nullptr) {
        const int cpl = common_prefix_length(found->key, prefix);
        if (cpl < found->key.length()) return std::nullopt;
        if (found->key.length() == prefix.length()) break;
        found = child_of(found, prefix.address().bit(found->key.length()));
      }
      if (found == nullptr || !found->value.has_value()) return std::nullopt;
      node = const_cast<Node*>(found);
    }
    std::optional<V> out = std::move(node->value);
    node->value.reset();
    --size_;
    return out;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    v4_root_.reset();
    v6_root_.reset();
    size_ = 0;
  }

  /// Array-mapped read-only image of the trie: nodes flattened into one
  /// contiguous vector addressed by dense 32-bit indices instead of
  /// pointer-chased heap nodes. Covering walks touch a few cache lines of
  /// one array, and the walk's terminal node index uniquely identifies the
  /// whole covering set.
  ///
  /// Values are borrowed from the source trie, which must outlive the
  /// frozen image unchanged.
  class Frozen {
   public:
    /// Walk result when nothing in the trie covers the target.
    static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

    Frozen() = default;

    bool empty() const { return nodes_.empty(); }
    std::size_t node_count() const { return nodes_.size(); }

    /// Index of the deepest node on the covering path of `target` —
    /// valued or split node alike; the path from the root to it is fixed
    /// by the tree structure, so this index is a complete key for the
    /// covering set. kNoNode when even the root does not match.
    std::uint32_t deepest_covering(const net::Prefix& target) const {
      std::uint32_t deepest = kNoNode;
      std::uint32_t index =
          target.family() == net::Family::kIpv4 ? v4_root_ : v6_root_;
      while (index != kNoNode) {
        const FrozenNode& node = nodes_[index];
        if (node.key.length() > target.length() ||
            common_prefix_length(node.key, target) < node.key.length()) {
          break;
        }
        deepest = index;
        if (node.key.length() == target.length()) break;
        index = node.child[target.address().bit(node.key.length()) ? 1 : 0];
      }
      return deepest;
    }

    std::uint32_t deepest_covering(const net::IpAddress& addr) const {
      return deepest_covering(net::Prefix(addr, addr.width()));
    }

    /// Valued matches on the root -> `node` path, shortest prefix first —
    /// exactly PrefixTrie::covering() for any target whose walk ends at
    /// `node`. kNoNode yields an empty list.
    std::vector<Match> path_matches(std::uint32_t node) const {
      std::vector<Match> out;
      for_each_path_match(node, [&out](const net::Prefix& prefix, const V& value) {
        out.push_back({prefix, &value});
      });
      return out;
    }

    /// Calls `fn(prefix, value)` for each valued match on the root ->
    /// `node` path, shortest prefix first — path_matches() without the
    /// result vector.
    template <typename Fn>
    void for_each_path_match(std::uint32_t node, Fn&& fn) const {
      // Key lengths strictly grow down a path, so it holds at most one
      // node per length 0..128.
      std::uint32_t path[129];
      std::size_t depth = 0;
      for (std::uint32_t index = node; index != kNoNode;
           index = nodes_[index].parent) {
        if (nodes_[index].value != nullptr) {
          assert(depth < std::size(path));
          path[depth++] = index;
        }
      }
      while (depth > 0) {
        const FrozenNode& match = nodes_[path[--depth]];
        fn(match.key, *match.value);
      }
    }

    std::size_t memory_bytes() const {
      return nodes_.capacity() * sizeof(FrozenNode);
    }

   private:
    friend class PrefixTrie;

    struct FrozenNode {
      net::Prefix key;
      std::uint32_t child[2] = {kNoNode, kNoNode};
      std::uint32_t parent = kNoNode;
      const V* value = nullptr;
    };

    std::vector<FrozenNode> nodes_;
    std::uint32_t v4_root_ = kNoNode;
    std::uint32_t v6_root_ = kNoNode;
  };

  /// Builds the frozen image (pre-order node numbering, deterministic).
  /// The trie must stay alive and unmodified while the image is in use.
  Frozen freeze() const {
    Frozen out;
    // Upper bound on node count: every insert adds at most one stored
    // node plus one split node.
    out.nodes_.reserve(2 * size_ + 2);
    out.v4_root_ = freeze_node(out, v4_root_.get(), Frozen::kNoNode);
    out.v6_root_ = freeze_node(out, v6_root_.get(), Frozen::kNoNode);
    return out;
  }

 private:
  struct Node {
    explicit Node(net::Prefix k) : key(k) {}
    net::Prefix key;
    std::optional<V> value;
    std::unique_ptr<Node> child[2];
  };

  /// Number of identical leading bits, capped at the shorter length.
  /// Compares 64 bits at a time: the first set bit of the XOR of the
  /// big-endian words is the first differing bit.
  static int common_prefix_length(const net::Prefix& a, const net::Prefix& b) {
    const int limit = std::min(a.length(), b.length());
    const std::uint8_t* x = a.address().bytes().data();
    const std::uint8_t* y = b.address().bytes().data();
    for (int word = 0; word * 64 < limit; ++word) {
      const std::uint64_t diff = load_be64(x + 8 * word) ^ load_be64(y + 8 * word);
      if (diff != 0) return std::min(limit, word * 64 + std::countl_zero(diff));
    }
    return limit;
  }

  static std::uint64_t load_be64(const std::uint8_t* bytes) {
    std::uint64_t v;
    std::memcpy(&v, bytes, sizeof v);
    if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
    return v;
  }

  std::unique_ptr<Node>& root_for(net::Family family) {
    return family == net::Family::kIpv4 ? v4_root_ : v6_root_;
  }

  const Node* root_of(net::Family family) const {
    return family == net::Family::kIpv4 ? v4_root_.get() : v6_root_.get();
  }

  static const Node* child_of(const Node* node, bool bit) {
    return node->child[bit ? 1 : 0].get();
  }

  Node* insert_node(std::unique_ptr<Node>& slot, const net::Prefix& prefix) {
    if (!slot) {
      slot = std::make_unique<Node>(prefix);
      return slot.get();
    }
    const int cpl = common_prefix_length(slot->key, prefix);
    if (cpl == slot->key.length() && cpl == prefix.length()) return slot.get();
    if (cpl == slot->key.length()) {
      // `prefix` is strictly more specific than this node: descend.
      return insert_node(slot->child[prefix.address().bit(cpl) ? 1 : 0], prefix);
    }
    // Keys diverge before the end of the node's label: split at cpl.
    auto split = std::make_unique<Node>(net::Prefix(slot->key.address(), cpl));
    std::unique_ptr<Node> old = std::move(slot);
    const bool old_bit = old->key.address().bit(cpl);
    split->child[old_bit ? 1 : 0] = std::move(old);
    slot = std::move(split);
    if (cpl == prefix.length()) return slot.get();
    return insert_node(slot->child[prefix.address().bit(cpl) ? 1 : 0], prefix);
  }

  std::uint32_t freeze_node(Frozen& out, const Node* node,
                            std::uint32_t parent) const {
    if (node == nullptr) return Frozen::kNoNode;
    assert(out.nodes_.size() < Frozen::kNoNode);
    const auto index = static_cast<std::uint32_t>(out.nodes_.size());
    out.nodes_.push_back(typename Frozen::FrozenNode{
        .key = node->key,
        .parent = parent,
        .value = node->value.has_value() ? &*node->value : nullptr});
    // Children appended after the parent; indices patched once known.
    const std::uint32_t left = freeze_node(out, node->child[0].get(), index);
    const std::uint32_t right = freeze_node(out, node->child[1].get(), index);
    out.nodes_[index].child[0] = left;
    out.nodes_[index].child[1] = right;
    return index;
  }

  void visit_node(const Node* node,
                  const std::function<void(const net::Prefix&, const V&)>& fn) const {
    if (node == nullptr) return;
    if (node->value.has_value()) fn(node->key, *node->value);
    visit_node(node->child[0].get(), fn);
    visit_node(node->child[1].get(), fn);
  }

  std::unique_ptr<Node> v4_root_;
  std::unique_ptr<Node> v6_root_;
  std::size_t size_ = 0;
};

}  // namespace ripki::trie
