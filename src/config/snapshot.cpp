#include "relogic/config/snapshot.hpp"

#include <algorithm>

namespace relogic::config {

std::size_t SnapshotKeeper::take(std::string label) {
  entries_.push_back(Entry{std::move(label), fabric_->capture()});
  if (entries_.size() > max_retained_) {
    entries_.erase(entries_.begin());
  }
  return entries_.size() - 1;
}

bool SnapshotKeeper::restore_latest() {
  if (entries_.empty()) return false;
  fabric_->restore(entries_.back().state);
  return true;
}

bool SnapshotKeeper::restore(const std::string& label) {
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    if (it->label == label) {
      fabric_->restore(it->state);
      return true;
    }
  }
  return false;
}

}  // namespace relogic::config
