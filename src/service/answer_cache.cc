#include "service/answer_cache.h"

namespace dpstarj::service {

AnswerCache::AnswerCache(size_t capacity) : capacity_(capacity) {}

std::optional<exec::QueryResult> AnswerCache::Lookup(const std::string& key,
                                                     double epsilon) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  stats_.epsilon_saved += epsilon;
  return it->second->second;
}

void AnswerCache::Insert(const std::string& key, const exec::QueryResult& answer) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Keep the stored answer: replaying the already-paid-for release is the
    // whole point; racing workers that both computed the miss agree to keep
    // the first insert.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, answer);
  index_[key] = lru_.begin();
  ++stats_.insertions;
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void AnswerCache::CountReplay(double epsilon) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.hits;
  stats_.epsilon_saved += epsilon;
}

void AnswerCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t AnswerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

AnswerCache::Stats AnswerCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dpstarj::service
