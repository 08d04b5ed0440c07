#include "eval/groupby.h"

#include <algorithm>
#include <cassert>

#include "base/hash.h"

namespace lps {

void GroupAccumulator::Reset(size_t key_width) {
  key_width_ = key_width;
  key_arena_.clear();
  postings_.clear();
  heads_.clear();
  tails_.clear();
  groups_.Clear();
}

uint32_t GroupAccumulator::Upsert(TupleRef key) {
  assert(key.size() == key_width_);
  const uint32_t fresh = static_cast<uint32_t>(heads_.size());
  const uint32_t g = groups_.FindOrInsert(
      HashRange(key), fresh,
      [&](uint32_t e) {
        return std::equal(key.begin(), key.end(), this->key(e).begin());
      },
      [&](uint32_t e) { return HashRange(this->key(e)); });
  if (g == fresh) {
    key_arena_.insert(key_arena_.end(), key.begin(), key.end());
    heads_.push_back(0);
    tails_.push_back(0);
  }
  return g;
}

void GroupAccumulator::Append(uint32_t group, TermId element) {
  postings_.push_back({element, 0});
  uint32_t idx = static_cast<uint32_t>(postings_.size());  // + 1 encoding
  if (tails_[group] != 0) {
    postings_[tails_[group] - 1].next = idx;
  } else {
    heads_[group] = idx;
  }
  tails_[group] = idx;
}

}  // namespace lps
