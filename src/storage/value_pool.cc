#include "storage/value_pool.h"

#include <mutex>

#include "common/stable_hash.h"

namespace fdrepair {

ValueId ValuePool::InternLocked(const std::string& text) {
  auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  ValueId id = static_cast<ValueId>(texts_.size());
  index_.emplace(text, id);
  texts_.push_back(text);
  digests_.push_back(TextDigest(text));
  fresh_.push_back(false);
  return id;
}

ValueId ValuePool::Intern(const std::string& text) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return InternLocked(text);
}

StatusOr<ValueId> ValuePool::Lookup(const std::string& text) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(text);
  if (it == index_.end()) {
    return Status::NotFound("value '" + text + "' not in pool");
  }
  return it->second;
}

ValueId ValuePool::FreshValue() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::string name;
  do {
    name = "⊥" + std::to_string(fresh_counter_++);
  } while (index_.find(name) != index_.end());
  ValueId id = InternLocked(name);
  fresh_[id] = true;
  return id;
}

ValueId ValuePool::FreshValueNamed(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::string candidate = name;
  while (true) {
    auto it = index_.find(candidate);
    if (it == index_.end()) {
      ValueId id = InternLocked(candidate);
      fresh_[id] = true;
      return id;
    }
    if (fresh_[it->second]) return it->second;
    // User data occupies the name: disambiguate deterministically. The
    // bumped name depends only on the colliding user content, so identical
    // tables (even on different pools) still agree on it.
    candidate += "'";
  }
}

bool ValuePool::IsFresh(ValueId value) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  FDR_CHECK(value >= 0 && value < static_cast<ValueId>(fresh_.size()));
  return fresh_[value];
}

const std::string& ValuePool::Text(ValueId value) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  FDR_CHECK_MSG(value >= 0 && value < static_cast<ValueId>(texts_.size()),
                "value id " << value << " out of range");
  return texts_[value];
}

int64_t ValuePool::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<int64_t>(texts_.size());
}

}  // namespace fdrepair
