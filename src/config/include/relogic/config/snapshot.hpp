// Recovery snapshots.
//
// The paper's tool "always keeps a complete copy of the current
// configuration, enabling system recovery in case of failure". SnapshotKeeper
// wraps Fabric::capture/restore with a named history so the CLI tool and the
// failure-injection tests can roll the fabric back to any retained point.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "relogic/fabric/fabric.hpp"

namespace relogic::config {

class SnapshotKeeper {
 public:
  explicit SnapshotKeeper(fabric::Fabric& fabric, std::size_t max_retained = 4)
      : fabric_(&fabric), max_retained_(max_retained) {}

  /// Captures the current fabric state under a label; evicts the oldest
  /// snapshot beyond the retention limit. Returns the snapshot index.
  std::size_t take(std::string label);

  /// Restores the most recent snapshot. Returns false if none retained.
  bool restore_latest();

  /// Restores the snapshot with the given label (most recent match).
  bool restore(const std::string& label);

  std::size_t retained() const { return entries_.size(); }

 private:
  struct Entry {
    std::string label;
    fabric::Fabric::State state;
  };
  fabric::Fabric* fabric_;
  std::size_t max_retained_;
  std::vector<Entry> entries_;
};

}  // namespace relogic::config
