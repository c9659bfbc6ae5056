// Lint self-test fixture: the directory marks the area layer, so a loop
// over an unordered container is flagged even in a function whose name
// says nothing about output: its order would break ties between moves.
#include <unordered_map>
#include <vector>

std::unordered_map<int, int> gain_of_region_;

int pick_victim() {
  int best = -1;
  int best_gain = -1;
  for (const auto& [region, gain] : gain_of_region_) {
    if (gain > best_gain) {
      best = region;
      best_gain = gain;
    }
  }
  return best;
}
