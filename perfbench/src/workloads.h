// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// The benchmark's three SSB traffic mixes and their seeded request streams.
// A stream is a pure function of (workload, seed, stream id): the service
// only ever sees the request bodies generated here.
//
//   analyst    SF 0.05, POST /v1/query over 16 warm shapes (the nine paper
//              queries plus grouped drill-downs); 30% of a client's requests
//              repeat one of its last 64 verbatim (answer-cache replays).
//   dashboard  SF 0.5, POST /v1/workload refreshes of 16 panels that share
//              predicates; constants are redrawn per refresh, stratified
//              so every run covers the predicate domains evenly.
//   explore    SF 0.05, POST /v1/query over 96 distinct plan signatures,
//              three times the plan cache's 32 entries.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace perfbench {

enum class Kind { kAnalyst, kDashboard, kExplore };

/// \brief Fixed parameters of one named workload.
struct WorkloadSpec {
  Kind kind = Kind::kAnalyst;
  std::string name;
  double scale_factor = 0.05;
  /// Writer connection appending one Lineorder batch per second (analyst).
  bool has_writer = false;
};

dpstarj::Result<WorkloadSpec> ParseWorkload(const std::string& name);

/// Every query of every workload is answered at this ε.
inline constexpr double kEpsilon = 0.5;
/// Rows per ingest batch (writer and ingest probe).
inline constexpr int kIngestBatchRows = 1000;
/// Panels per dashboard refresh.
inline constexpr size_t kPanels = 16;

/// \brief A parameterized query shape: `render` draws fresh predicate
/// constants from the stream's generator and returns the SQL text.
struct Shape {
  std::string name;
  std::function<std::string(dpstarj::Rng&)> render;
};

/// The 16 warm analyst shapes.
std::vector<Shape> AnalystShapes();
/// The 96 explore shapes, one plan signature each.
std::vector<Shape> ExploreShapes();

/// \brief One wire request of a stream.
struct Request {
  std::string target;             ///< "/v1/query" or "/v1/workload"
  std::string body;               ///< exact JSON body sent
  std::vector<std::string> sqls;  ///< 1 query, or the refresh's panels
  /// Stream position of the request this one repeats verbatim, or -1.
  int64_t replay_of = -1;
  int64_t seq = 0;                ///< position in its stream
};

/// \brief The seeded request stream of one client connection.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, uint64_t seed, uint64_t stream_id,
                std::string tenant);

  /// The next request. `fresh_only` suppresses analyst replays.
  Request Next(bool fresh_only = false);

 private:
  Kind kind_;
  std::string tenant_;
  dpstarj::Rng rng_;
  std::vector<Shape> shapes_;
  std::deque<Request> recent_;  ///< analyst: the last 64 fresh-or-replayed
  /// dashboard: per-domain visiting orders (year-range width, first region
  /// of each drill-down row).
  std::vector<std::vector<size_t>> strata_;
  int64_t next_seq_ = 0;
};

/// Body of one POST /v1/query.
std::string QueryBody(const std::string& sql, const std::string& tenant,
                      double epsilon = kEpsilon);
/// Body of one POST /v1/workload.
std::string WorkloadBody(const std::vector<std::string>& sqls,
                         const std::string& tenant);

/// Derives an independent 64-bit seed for a sub-stream.
uint64_t MixSeed(uint64_t seed, uint64_t stream_id);

/// \brief FNV-1a digest of the first `count` requests of streams 0 and 1:
/// equal for equal seeds, so a run can prove its inputs are seed-determined.
uint64_t StreamDigest(const WorkloadSpec& spec, uint64_t seed, int count);

}  // namespace perfbench
