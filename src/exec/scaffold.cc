#include "exec/scaffold.h"

#include <algorithm>
#include <iterator>

namespace dpstarj::exec {

size_t FkRowsComponent::ApproxBytes() const {
  return rows.capacity() * sizeof(int32_t);
}

size_t WeightsComponent::ApproxBytes() const {
  return weights.capacity() * sizeof(double);
}

size_t GroupOrdinals::ApproxBytes() const {
  return group_ordinal.capacity() * sizeof(int32_t) +
         rep_rows.capacity() * sizeof(int64_t);
}

size_t OrdinalTable::ApproxBytes() const {
  return ordinals.capacity() * sizeof(int64_t);
}

size_t RunsComponent::ApproxBytes() const {
  size_t bytes = run_offsets.capacity() * sizeof(int64_t) +
                 label_of_code.capacity() * sizeof(int32_t);
  for (const auto& s : group_labels) bytes += sizeof(s) + s.capacity();
  return bytes;
}

std::shared_ptr<const ScaffoldComponent> ScaffoldInterner::LookupAny(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(key);
  if (it == table_.end()) return nullptr;
  std::shared_ptr<const ScaffoldComponent> live = it->second.lock();
  if (live != nullptr) ++stats_.reused;
  return live;
}

std::shared_ptr<const ScaffoldComponent> ScaffoldInterner::InsertAny(
    const std::string& key, std::shared_ptr<const ScaffoldComponent> built) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.built;
  std::weak_ptr<const ScaffoldComponent>& slot = table_[key];
  if (std::shared_ptr<const ScaffoldComponent> winner = slot.lock()) {
    return winner;  // a racing build landed first
  }
  slot = built;
  // Entries of dead components are only garbage; sweep them whenever the
  // table doubles past the last sweep, so the table stays O(live).
  if (table_.size() >= prune_at_) {
    for (auto it = table_.begin(); it != table_.end();) {
      it = it->second.expired() ? table_.erase(it) : std::next(it);
    }
    prune_at_ = std::max<size_t>(64, 2 * table_.size());
  }
  return built;
}

ScaffoldInterner::Stats ScaffoldInterner::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dpstarj::exec
