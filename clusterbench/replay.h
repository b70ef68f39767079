// Component replays for the traced run. Compute layers run inside
// ClusterBackend::handle, where the benchmark puts no spans, so the
// traced run re-issues requests generated from the run's seed through
// each layer's public functions on scratch instances, outside any window:
// for every layer, the requests the workload that exercises it would
// send for this seed (study_reads' 32 most popular keys, the first
// replication_sweep seed, the first annotate edits, one stream's first
// batches), so every traced run reports every layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace clusterbench {

/// Per-layer timings (µs or ms, as named) and ratios:
///   study.run_study_us, mixed.glmm_ms, mixed.lmm_ms, metrics.battery_ms,
///   embed.train_ms, annotate_engine.annotate_us,
///   annotate_engine.replay_slice_hit_ratio, lang.parse_us, lang.lint_us,
///   streaming.absorb_us_per_arrival, streaming.refit_ms,
///   streaming.dashboard_us, disk_cache.store_us, disk_cache.load_us,
///   journal.append_us.
/// `answered` (the traced window's requests and answers) feeds the disk
/// cache and journal replays; scratch files live under `scratch_dir`.
std::map<std::string, double> replay_layers(
    std::uint64_t seed, const std::vector<Answered>& answered,
    const std::string& scratch_dir);

}  // namespace clusterbench
