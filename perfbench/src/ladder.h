// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// The layer ladder: a seeded sample of the workload's fresh requests is
// driven through the public entry point of each layer in turn —
//
//   query   Binder::BindSql
//   exec    PlanCache::GetOrCompile, StarJoinExecutor::Execute(q, overrides,
//           plan), WorkloadPlan::Compile + Execute
//   core    PredicateMechanism::PerturbPredicates / Answer / AnswerBatch
//   service QueryService::Submit / SubmitWorkload / Ingest
//   net     net::Client::Post on one connection, QueryResultToJson, Json::Parse
//
// — with a span around every call. A layer's self time is, per request, its
// rung's duration minus the rungs it calls on the same request, and the
// metric is the median of those; core's, a few microseconds, is taken from
// the exec stages its own call records in obs::Trace instead. Every cache a
// rung touches starts in the state the end-to-end run leaves it in, except
// the rungs the self times of service and net use: those run on the plan
// the request's first submit left warm, so the differences are like for
// like.
#pragma once

#include "harness.h"
#include "perf_util.h"

namespace perfbench {

/// Runs every rung and sets the ladder's per-layer metrics.
void RunLadder(Env& env, SpanLog* spans, MetricSet* metrics, CheckLog* checks);

}  // namespace perfbench
