#include "trace_ledger.h"

#include <algorithm>
#include <string_view>
#include <utility>

namespace e2e {
namespace {

struct Node {
  const qmap::SpanRecord* span = nullptr;
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;  // index into the node vector
};

// Which layer claims a span's self time; kUnattributed when none does.
Layer SelfLayer(std::string_view name, std::string_view parent) {
  static const std::pair<std::string_view, Layer> kNames[] = {
      {"e2e.parse", kExprParse},
      {"fanout.wait", kServiceFanoutWait},
      {"pool.wait", kServicePoolWait},
      {"cache.lookup", kServiceCacheLookup},
      {"cache.insert", kServiceCacheInsert},
      {"join", kServiceJoin},
      {"match", kCoreScm},
      {"tdqm", kCoreTdqm},
      {"scm", kCoreScm},
      {"psafe", kCorePsafe},
      {"ednf.match", kCoreEdnf},
      {"ednf.safety", kCoreEdnf},
      {"disjunctivize", kCoreDisjunctivize},
      {"store.lookup", kStoreLookup},
      {"rpc.translate", kWireRpc},
      {"e2e.worker", kWireWorker},
      {"e2e.codec", kWireCodec},
      {"e2e.fold", kObsFold},
  };
  for (const auto& [n, layer] : kNames) {
    if (name == n) return layer;
  }
  if (name.starts_with("node.")) return kCoreTdqm;
  if (name == "filter") {
    if (parent == "service.translate") return kServiceMergeFilter;
    if (parent == "translate") return kCoreResidueFilter;
  }
  return kUnattributed;
}

// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>>& intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

void Ledger::Add(const std::vector<qmap::SpanRecord>& spans) {
  const int n = static_cast<int>(spans.size());
  std::vector<Node> nodes(static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    const qmap::SpanRecord& s = spans[static_cast<size_t>(k)];
    nodes[k].span = &s;
    nodes[k].start = s.start_ns;
    nodes[k].end = s.start_ns + std::max<int64_t>(s.dur_ns, 0);
    // Span ids are 1-based creation order.
    nodes[k].parent = s.parent > 0 && s.parent <= static_cast<uint64_t>(n)
                          ? static_cast<int>(s.parent) - 1
                          : -1;
  }
  for (int k = 0; k < n; ++k) {
    // Innermost earlier-created span of the same thread that contains k.
    int container = -1;
    for (int c = 0; c < k; ++c) {
      if (nodes[c].span->thread != nodes[k].span->thread) continue;
      if (nodes[c].start > nodes[k].start || nodes[c].end < nodes[k].end) {
        continue;
      }
      if (container < 0 || nodes[c].start >= nodes[container].start) {
        container = c;
      }
    }
    const int p = nodes[k].parent;
    if (container >= 0 && (p < 0 || nodes[container].start >= nodes[p].start)) {
      nodes[k].parent = container;
    }
  }
  for (int k = 0; k < n; ++k) {
    // Pool-side spans of a fan-out belong to the caller's fanout.wait.
    const int p = nodes[k].parent;
    if (p < 0 || nodes[p].span->name != "service.translate" ||
        nodes[p].span->thread == nodes[k].span->thread) {
      continue;
    }
    for (int f = 0; f < n; ++f) {
      if (nodes[f].parent == p && nodes[f].span->name == "fanout.wait" &&
          nodes[f].start <= nodes[k].start && nodes[k].start <= nodes[f].end) {
        nodes[k].parent = f;
        break;
      }
    }
  }

  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      static_cast<size_t>(n));
  for (int k = 0; k < n; ++k) {
    if (nodes[k].parent >= 0) {
      children[nodes[k].parent].push_back({nodes[k].start, nodes[k].end});
    }
  }
  for (int k = 0; k < n; ++k) {
    const qmap::SpanRecord& s = *nodes[k].span;
    const std::string_view parent_name =
        nodes[k].parent >= 0 ? std::string_view(nodes[nodes[k].parent].span->name)
                             : std::string_view();
    const int64_t dur = nodes[k].end - nodes[k].start;
    const int64_t self =
        dur - CoveredNs(children[k], nodes[k].start, nodes[k].end);
    const Layer layer = SelfLayer(s.name, parent_name);
    ns[layer] += self;
    if (layer == kUnattributed) unattributed_by_span[s.name] += self;
    if (s.name == "e2e.translate") ns[kServiceTranslate] += dur;
    if (s.name == "translate") ns[kCoreTranslate] += dur;
    if (s.name == "pool.wait") ++pool_tasks;
    if (s.name == "rpc.translate") ++rpcs;
    if (s.name == "e2e.worker") ++worker_calls;
    if (s.name == "e2e.codec") ++codec_calls;
    if (s.name == "e2e.request") ++requests;
    if (!s.name.starts_with("e2e.")) ++program_spans;
  }
}

void Ledger::Merge(const Ledger& other) {
  for (int k = 0; k < kNumLayers; ++k) ns[k] += other.ns[k];
  requests += other.requests;
  pool_tasks += other.pool_tasks;
  rpcs += other.rpcs;
  worker_calls += other.worker_calls;
  codec_calls += other.codec_calls;
  program_spans += other.program_spans;
  for (const auto& [name, v] : other.unattributed_by_span) {
    unattributed_by_span[name] += v;
  }
}

}  // namespace e2e
