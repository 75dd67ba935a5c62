// Shared scaffolding for the experiment benches: every bench reproduces
// one table or figure of the paper from the same five-day simulated
// experiment (the synthetic stand-in for the authors' physical data
// collection), printing the paper's reference values next to ours.
#pragma once

#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "fadewich/eval/adversary.hpp"
#include "fadewich/eval/md_evaluation.hpp"
#include "fadewich/eval/paper_setup.hpp"
#include "fadewich/eval/report.hpp"
#include "fadewich/eval/sample_extraction.hpp"
#include "fadewich/eval/security.hpp"
#include "fadewich/eval/usability.hpp"
#include "fadewich/eval/window_matching.hpp"

namespace fadewich::bench {

/// The canonical experiment every bench analyses.  FADEWICH_BENCH_FAST=1
/// in the environment shrinks it (2 days x 2 h) so the whole bench suite
/// can be smoke-tested quickly; by default it matches the paper's scale
/// (5 days x 8 h, 3 users, 9 sensors).
inline eval::PaperExperiment make_experiment() {
  eval::PaperSetup setup;
  if (fast_mode()) {
    setup.days = 2;
    setup.day.day_length = 2.0 * 3600.0;
  }
  std::cerr << "[bench] simulating " << setup.days << " day(s) of "
            << setup.day.day_length / 3600.0 << " h office activity...\n";
  eval::PaperExperiment experiment = eval::make_paper_experiment(setup);
  std::cerr << "[bench] recording: " << experiment.recording.tick_count()
            << " ticks x " << experiment.recording.stream_count()
            << " streams, " << experiment.recording.events().size()
            << " ground-truth events\n";
  return experiment;
}

/// MD windows (>= t_delta) matched against ground truth for a sensor
/// count, all from one recording.
struct MdAnalysis {
  std::vector<core::VariationWindow> windows;  // >= t_delta only
  eval::MatchResult matches;
};

inline MdAnalysis analyze_md(const eval::PaperExperiment& experiment,
                             std::size_t sensors, Seconds t_delta) {
  const auto run = eval::run_md(experiment.recording,
                                eval::sensor_subset(sensors),
                                eval::default_md_config());
  MdAnalysis analysis;
  analysis.windows = eval::filter_by_duration(
      run.windows, experiment.recording.rate(), t_delta);
  analysis.matches =
      eval::match_windows(analysis.windows, experiment.recording.events(),
                          experiment.recording.rate());
  return analysis;
}

}  // namespace fadewich::bench
