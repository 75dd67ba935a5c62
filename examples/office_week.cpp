// The full paper pipeline at paper scale: five 8-hour days in the Fig. 6
// office, offline analysis exactly as Section VII runs it — MD over the
// whole monitored period, TP/FP/FN against ground truth, RE trained and
// tested in stratified 5-fold cross validation, decision-tree outcomes,
// adversary analysis, and the usability bill.
//
// The final section runs the same week *online* under crash protection:
// the pipeline trains for two days, checkpoints every two minutes, has
// the plug pulled at the end of day 3, restarts from the snapshot ring,
// and finishes the week — printing the recovery report and how many
// deauthentications differ from an uninterrupted run once the restored
// pipeline has re-warmed.
//
//   $ ./office_week [days 1-30] [sensors 2-9]
#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fadewich/eval/adversary.hpp"
#include "fadewich/eval/crash_replay.hpp"
#include "fadewich/eval/md_evaluation.hpp"
#include "fadewich/eval/paper_setup.hpp"
#include "fadewich/eval/report.hpp"
#include "fadewich/eval/security.hpp"
#include "fadewich/eval/usability.hpp"
#include "fadewich/obs/obs.hpp"

using namespace fadewich;

namespace {

/// `text` as a plain decimal number in [lo, hi]; nullopt otherwise
/// (signs, junk and out-of-range values included).
std::optional<std::size_t> parse_arg(const char* text, std::size_t lo,
                                     std::size_t hi) {
  std::size_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

int usage() {
  std::cerr << "usage: office_week [days 1-30] [sensors 2-9]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  eval::PaperSetup setup;
  std::size_t sensors = 9;
  if (argc > 3) return usage();
  if (argc > 1) {
    const std::optional<std::size_t> days = parse_arg(argv[1], 1, 30);
    if (!days) return usage();
    setup.days = *days;
  }
  if (argc > 2) {
    const std::optional<std::size_t> n = parse_arg(argv[2], 2, 9);
    if (!n) return usage();
    sensors = *n;
  }

  std::cout << "Simulating " << setup.days << " day(s), analysing with "
            << sensors << " sensors...\n";
  const eval::PaperExperiment experiment =
      eval::make_paper_experiment(setup);

  const auto counts = eval::event_counts(experiment.recording, 3);
  eval::print_banner(std::cout, "Data collection");
  std::cout << "entries (w0): " << counts[0] << "   leaves: w1=" << counts[1]
            << " w2=" << counts[2] << " w3=" << counts[3] << "\n";

  eval::SecurityConfig config;
  const auto security = eval::evaluate_security(
      experiment.recording, eval::sensor_subset(sensors),
      eval::default_md_config(), config);

  eval::print_banner(std::cout, "Movement detection (MD)");
  const auto md_counts = security.matches.counts();
  std::cout << "TP=" << md_counts.true_positives
            << " FP=" << md_counts.false_positives
            << " FN=" << md_counts.false_negatives
            << "  precision=" << eval::fmt(md_counts.precision(), 3)
            << " recall=" << eval::fmt(md_counts.recall(), 3)
            << " F=" << eval::fmt(md_counts.f_measure(), 3) << "\n";

  eval::print_banner(std::cout, "Radio environment classifier (RE)");
  std::cout << "5-fold cross-validated accuracy: "
            << eval::fmt(security.re_accuracy, 3) << "\n";

  eval::print_banner(std::cout, "Deauthentication outcomes (Fig. 5)");
  std::size_t a = 0;
  std::size_t b = 0;
  std::size_t c = 0;
  double worst_delay = 0.0;
  for (const auto& outcome : security.outcomes) {
    switch (outcome.outcome) {
      case eval::DeauthCase::kCorrect:
        ++a;
        worst_delay = std::max(worst_delay, outcome.delay);
        break;
      case eval::DeauthCase::kMisclassified: ++b; break;
      case eval::DeauthCase::kMissed: ++c; break;
    }
  }
  std::cout << "case A (correct, t1+t_delta): " << a
            << "\ncase B (misclassified, t+tID+tss): " << b
            << "\ncase C (missed, timeout): " << c
            << "\nslowest case-A deauthentication: "
            << eval::fmt(worst_delay, 1) << " s after departure\n";

  eval::print_banner(std::cout, "Lunchtime attacks");
  const auto attacks =
      eval::count_attack_opportunities(security, experiment.recording);
  const auto baseline = eval::count_attack_opportunities_timeout(
      experiment.recording, config.timeout);
  std::cout << "time-out baseline: insider "
            << eval::fmt(baseline.insider_percent(), 1) << "%, co-worker "
            << eval::fmt(baseline.coworker_percent(), 1) << "%\n"
            << "FADEWICH:          insider "
            << eval::fmt(attacks.insider_percent(), 1) << "%, co-worker "
            << eval::fmt(attacks.coworker_percent(), 1) << "%\n";

  eval::print_banner(std::cout, "Usability (per 8 h day)");
  eval::UsabilityConfig ucfg;
  const auto usability =
      eval::evaluate_usability(experiment.recording, security, ucfg);
  std::cout << "screensavers: "
            << eval::fmt(usability.screensavers_per_day_mean, 2)
            << "/day, forced re-logins: "
            << eval::fmt(usability.deauths_per_day_mean, 3)
            << "/day, cost: "
            << eval::fmt(usability.cost_per_day_seconds, 1) << " s/day\n"
            << "vulnerable time: "
            << eval::fmt(eval::vulnerable_time_minutes(
                             security, experiment.recording),
                         1)
            << " min (time-out baseline: "
            << eval::fmt(eval::vulnerable_time_minutes_timeout(
                             experiment.recording, config.timeout),
                         1)
            << " min)\n";

  // --- Crash-safe online week ---------------------------------------
  // Everything above analysed the recording offline.  Now live the week
  // online: train on the first two days, checkpoint every two minutes,
  // lose power at the end of day 3, restart from the snapshot ring, and
  // finish the week.  An uninterrupted run of the same week is the
  // yardstick the restarted run is held to.
  if (setup.days >= 2) {
    eval::print_banner(std::cout, "Crash-safe online week");
    const sim::Recording& recording = experiment.recording;
    const auto ring_dir = std::filesystem::temp_directory_path() /
                          "fadewich_office_week_ring";
    std::filesystem::remove_all(ring_dir);

    const std::size_t training_days =
        std::min<std::size_t>(2, setup.days - 1);
    const std::size_t crash_day =
        std::max<std::size_t>(training_days, std::min<std::size_t>(
                                                 3, setup.days - 1));
    eval::CrashReplayConfig crash;
    crash.online.system.md = eval::default_md_config();
    crash.online.training_duration =
        recording.day_length() * static_cast<double>(training_days);
    const Tick day_end = recording.rate().to_ticks_ceil(
        recording.day_length() * static_cast<double>(crash_day));
    crash.crash_tick = day_end - 1;  // dies after the day's last tick
    crash.checkpoint_period = 600;  // 2 min at 5 Hz
    crash.recovery.directory = ring_dir.string();

    const std::vector<eval::ActionRecord> reference =
        eval::run_online(recording, 3, crash.online);
    // The end-of-day scrape below covers the crashed week alone.
    obs::registry().reset();
    const eval::CrashReplayResult crashed =
        eval::run_with_crash(recording, 3, crash);
    std::filesystem::remove_all(ring_dir);

    // (actions, deauthentications) among `actions` before tick `end`.
    const auto tally = [](const std::vector<eval::ActionRecord>& actions,
                          Tick end) {
      std::size_t count = 0, deauths = 0;
      for (const eval::ActionRecord& action : actions) {
        if (action.tick >= end) continue;
        ++count;
        if (action.type == core::ActionType::kDeauthenticate) ++deauths;
      }
      return std::make_pair(count, deauths);
    };
    const auto [day_actions, day_deauths] = tally(reference, day_end);
    std::cout << "day 1-" << crash_day << ": " << day_actions
              << " actions (" << day_deauths
              << " deauthentications), a checkpoint every "
              << crash.checkpoint_period << " ticks\n";
    std::cout << "-- power cut at the end of day " << crash_day
              << " (tick " << day_end << ") --\n";
    std::cout << "restart: "
              << (crashed.cold_start
                      ? "cold start (no usable snapshot)"
                      : "recovered " + crashed.report.recovered_path)
              << "\n  resumed at tick " << crashed.restored_tick << " ("
              << day_end - crashed.restored_tick
              << " ticks lost), " << crashed.report.rejected.size()
              << " snapshot(s) rejected\n";
    const auto [week_actions, week_deauths] =
        tally(crashed.actions, recording.tick_count());
    std::cout << "week finished: " << week_actions << " actions total ("
              << week_deauths << " deauthentications)\n";
    const Seconds rewarm = eval::rewarm_bound(crash);
    const eval::DivergenceResult divergence = eval::compare_actions(
        reference, crashed, recording.rate(), rewarm);
    std::cout << "divergent deauthentications after re-warm ("
              << eval::fmt(rewarm, 1)
              << " s): " << divergence.divergent_deauths_after_rewarm
              << " (" << divergence.divergent_in_rewarm
              << " action(s) shifted inside it)\n";

    // End-of-day observability scrape: the same document a monitoring
    // agent would pull, reduced to the operator's two questions — how
    // fast are we locking screens, and what did the reporting path lose?
    eval::print_banner(std::cout, "End-of-day scrape");
    const obs::ScrapeReport scrape = obs::scrape();
    if (const obs::HistogramSample* latency =
            scrape.metrics.find_histogram(
                "fadewich_ctl_deauth_latency_seconds")) {
      std::cout << "deauth latency: p50="
                << eval::fmt(latency->percentile(0.50), 1) << " s, p95="
                << eval::fmt(latency->percentile(0.95), 1) << " s, p99="
                << eval::fmt(latency->percentile(0.99), 1) << " s ("
                << latency->count << " Rule-1 deauthentications)\n";
    }
    const auto counter = [&scrape](const char* name) -> std::uint64_t {
      const obs::CounterSample* c = scrape.metrics.find_counter(name);
      return c != nullptr ? c->value : 0;
    };
    std::cout << "movement windows closed: "
              << counter("fadewich_md_windows_closed_total")
              << ", degraded ticks: "
              << counter("fadewich_md_degraded_ticks_total") << "\n";
    std::cout << "fault counters: duplicates="
              << counter("fadewich_net_duplicates_total")
              << " late=" << counter("fadewich_net_late_reports_total")
              << " evictions=" << counter("fadewich_net_evictions_total")
              << " imputed_cells="
              << counter("fadewich_net_imputed_cells_total") << "\n";
  }
  return 0;
}
