// Lint self-test fixture: the directory marks an event path, so a loop
// over an unordered container is flagged even in a function whose name
// says nothing about output: its order would become the event order.
#include <unordered_map>
#include <vector>

std::unordered_map<int, int> sink_delay_;

std::vector<int> schedule_sinks() {
  std::vector<int> events;
  for (const auto& [sink, delay] : sink_delay_) {
    events.push_back(sink + delay);
  }
  return events;
}
