#include "fadewich/rf/channel.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "fadewich/common/error.hpp"
#include "fadewich/common/scratch_arena.hpp"

namespace fadewich::rf {

namespace {
constexpr double kTwoPi = 2.0 * 3.14159265358979323846;

// One body's kernel parameters for a tick: position plus each spatial
// kernel's amplitude with the speed factors folded in, computed exactly
// as BodyShadowingModel's per-link helpers would (same multiplication
// association), so the wide pass reproduces the per-link model.
simd::ShadowParams make_shadow_params(const BodyModelConfig& config,
                                      const BodyState& body) {
  simd::ShadowParams p;
  p.px = body.position.x;
  p.py = body.position.y;
  p.max_attenuation_db = config.max_attenuation_db;
  p.shadow_decay_m = config.shadow_decay_m;
  p.motion_decay_m = config.motion_decay_m;
  p.ambient_decay_m = config.ambient_decay_m;
  if (body.speed > 0.0) {
    p.motion_coeff =
        config.motion_noise_db *
        std::min(body.speed / config.reference_speed, 1.5);
    p.ambient_coeff = config.ambient_motion_db * std::min(body.speed, 2.0);
  }
  return p;
}

}  // namespace

ChannelMatrix::ChannelMatrix(std::vector<Point> sensors,
                             ChannelConfig config, std::uint64_t seed)
    : sensors_(std::move(sensors)),
      config_(config),
      body_model_(config.body),
      path_loss_(config.path_loss),
      noise_rng_(seed) {  // reseeded from a split stream below
  FADEWICH_EXPECTS(sensors_.size() >= 2);
  Rng root(seed);
  Rng shadow_rng = root.split(1);
  Rng fading_seed_rng = root.split(2);
  noise_rng_ = root.split(3);
  Rng link_noise_seed_rng = root.split(4);

  const std::size_t m = sensors_.size();
  links_.reserve(m * (m - 1));

  // Undirected link shadowing is shared by both directions; a small
  // per-direction offset models RX chain differences.  One flat
  // upper-triangular array (pair (i, j), i < j, at index
  // i*m - i*(i+1)/2 + (j-i-1)) instead of an m x m nested vector; the
  // draws happen in the same (i, j) order as before, so the RNG stream
  // and every static RSSI are unchanged.
  std::vector<double> undirected_shadow(m * (m - 1) / 2, 0.0);
  const auto pair_index = [m](std::size_t i, std::size_t j) {
    // Requires i < j.
    return i * m - i * (i + 1) / 2 + (j - i - 1);
  };
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      undirected_shadow[pair_index(i, j)] =
          shadow_rng.normal(0.0, config_.link_shadow_sigma_db);
    }
  }

  for (std::size_t tx = 0; tx < m; ++tx) {
    for (std::size_t rx = 0; rx < m; ++rx) {
      if (tx == rx) continue;
      Segment seg{sensors_[tx], sensors_[rx]};
      const PrecomputedSegment geom(seg);
      const double offset =
          shadow_rng.normal(0.0, config_.direction_offset_sigma_db);
      const double shadow =
          undirected_shadow[pair_index(std::min(tx, rx), std::max(tx, rx))];
      const double static_rssi = config_.tx_power_dbm -
                                 path_loss_.loss_db(geom.length) -
                                 shadow - offset;
      links_.push_back(LinkState{
          seg, geom, static_rssi, shadow_rng.uniform(0.0, kTwoPi),
          Ar1Fading(config_.fading, fading_seed_rng.split(links_.size())),
          link_noise_seed_rng.split(links_.size())});
    }
  }
  interference_affected_.assign(links_.size(), 0);

  const std::size_t streams = links_.size();
  geo_ax_.resize(streams);
  geo_ay_.resize(streams);
  geo_bx_.resize(streams);
  geo_by_.resize(streams);
  geo_dirx_.resize(streams);
  geo_diry_.resize(streams);
  geo_len_.resize(streams);
  geo_inv_len2_.resize(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    const PrecomputedSegment& g = links_[s].geom;
    geo_ax_[s] = g.a.x;
    geo_ay_[s] = g.a.y;
    geo_bx_[s] = g.b.x;
    geo_by_[s] = g.b.y;
    geo_dirx_[s] = g.dir.x;
    geo_diry_[s] = g.dir.y;
    geo_len_[s] = g.length;
    geo_inv_len2_[s] = g.inv_len2;
  }

  FADEWICH_EXPECTS(config_.tick_hz > 0.0);
  if (config_.interference_mean_gap_s > 0.0) {
    interference_gap_ticks_ = noise_rng_.exponential(
        1.0 / (config_.interference_mean_gap_s * config_.tick_hz));
  }
}

std::size_t ChannelMatrix::stream_index(std::size_t tx, std::size_t rx) const {
  FADEWICH_EXPECTS(tx < sensors_.size());
  FADEWICH_EXPECTS(rx < sensors_.size());
  FADEWICH_EXPECTS(tx != rx);
  // Row tx holds (m - 1) streams; rx skips the diagonal.
  const std::size_t m = sensors_.size();
  return tx * (m - 1) + (rx < tx ? rx : rx - 1);
}

std::pair<std::size_t, std::size_t> ChannelMatrix::stream_pair(
    std::size_t stream) const {
  FADEWICH_EXPECTS(stream < links_.size());
  const std::size_t m = sensors_.size();
  const std::size_t tx = stream / (m - 1);
  std::size_t rx = stream % (m - 1);
  if (rx >= tx) ++rx;
  return {tx, rx};
}

const Segment& ChannelMatrix::link(std::size_t stream) const {
  FADEWICH_EXPECTS(stream < links_.size());
  return links_[stream].segment;
}

void ChannelMatrix::advance_interference() {
  if (config_.interference_mean_gap_s <= 0.0) return;
  if (interference_remaining_ticks_ > 0.0) {
    interference_remaining_ticks_ -= 1.0;
    return;
  }
  if (interference_gap_ticks_ > 0.0) {
    interference_gap_ticks_ -= 1.0;
    return;
  }
  // Start a new burst: pick its strength, duration and the affected links.
  interference_remaining_ticks_ =
      noise_rng_.exponential(1.0 / (config_.interference_mean_duration_s *
                                    config_.tick_hz));
  interference_std_db_ =
      noise_rng_.uniform(1.0, config_.interference_max_std_db);
  // The mask buffer is sized once at construction; bursts overwrite it in
  // place, so the steady-state tick loop never allocates.
  for (std::size_t s = 0; s < links_.size(); ++s) {
    interference_affected_[s] =
        noise_rng_.bernoulli(config_.interference_link_fraction) ? 1 : 0;
  }
  interference_gap_ticks_ = noise_rng_.exponential(
      1.0 / (config_.interference_mean_gap_s * config_.tick_hz));
}

void ChannelMatrix::sample(std::span<const BodyState> bodies,
                           std::span<const Jammer> jammers,
                           std::span<double> out) {
  FADEWICH_EXPECTS(out.size() == links_.size());
  if (jammers.empty()) {
    sample(bodies, out);
    return;
  }
  // Receiver-side interference: one noise level per RX sensor, staged in
  // the calling thread's scratch arena (this path runs inside the tick
  // loop when jammers are active, and must not allocate per call).
  auto& arena = common::ScratchArena::local();
  const auto frame = arena.frame();
  const std::span<double> jam_var = arena.get<double>(sensors_.size());
  std::fill(jam_var.begin(), jam_var.end(), 0.0);
  for (std::size_t rx = 0; rx < sensors_.size(); ++rx) {
    for (const Jammer& jammer : jammers) {
      const double std_db =
          jammer_noise_std_db(jammer, sensors_[rx], path_loss_);
      jam_var[rx] += std_db * std_db;
    }
  }
  sample(bodies, out);
  for (std::size_t s = 0; s < links_.size(); ++s) {
    const std::size_t rx = stream_pair(s).second;
    if (jam_var[rx] <= 0.0) continue;
    double rssi =
        out[s] + links_[s].noise_rng.normal(0.0, std::sqrt(jam_var[rx]));
    rssi = std::clamp(rssi, config_.rssi_floor_dbm,
                      config_.rssi_ceiling_dbm);
    if (config_.quantize) rssi = std::round(rssi);
    out[s] = rssi;
  }
}

double ChannelMatrix::stream_base(LinkState& ls, double drift_arg) const {
  double fading = ls.fading.step();
  if (config_.noise_drift_fraction > 0.0) {
    // Common phase across links: co-channel load raises the noise of
    // the whole band together, which is exactly what shifts MD's
    // sum-of-std statistic (per-link random phases would cancel in
    // the sum).
    fading *= 1.0 + config_.noise_drift_fraction * std::sin(drift_arg);
  }
  double rssi = ls.static_rssi_dbm + fading;
  if (config_.baseline_drift_amplitude_db > 0.0) {
    rssi += config_.baseline_drift_amplitude_db *
            std::sin(drift_arg + ls.drift_phase);
  }
  return rssi;
}

double ChannelMatrix::finish_stream(LinkState& ls, double rssi,
                                    double noise_var,
                                    double interference_std_db) const {
  noise_var += interference_std_db * interference_std_db;
  if (noise_var > 0.0) {
    rssi += ls.noise_rng.normal(0.0, std::sqrt(noise_var));
  }
  rssi = std::clamp(rssi, config_.rssi_floor_dbm, config_.rssi_ceiling_dbm);
  if (config_.quantize) rssi = std::round(rssi);
  return rssi;
}

simd::ShadowGeomView ChannelMatrix::geom_view() const {
  return {geo_ax_.data(),   geo_ay_.data(),   geo_bx_.data(),
          geo_by_.data(),   geo_dirx_.data(), geo_diry_.data(),
          geo_len_.data(),  geo_inv_len2_.data()};
}

void ChannelMatrix::sample(std::span<const BodyState> bodies,
                           std::span<double> out) {
  FADEWICH_EXPECTS(out.size() == links_.size());
  advance_interference();
  const bool interfering = interference_remaining_ticks_ > 0.0;
  const double now_s = static_cast<double>(tick_++) / config_.tick_hz;
  const bool drifting = config_.baseline_drift_amplitude_db > 0.0 ||
                        config_.noise_drift_fraction > 0.0;
  const double drift_arg =
      drifting ? kTwoPi * now_s / config_.baseline_drift_period_s : 0.0;
  const std::size_t streams = links_.size();
  const simd::KernelTable& kt = simd::active_kernels();

  // Wide tick: per-link prologue (fading draws, in stream order), one
  // all-links shadowing kernel pass per body, per-link epilogue (noise
  // draw, clamp, quantise).  Per-link RNG sequences are unchanged — the
  // prologue consumes each fading generator and the epilogue each noise
  // generator exactly as the per-stream path does.
  auto& arena = common::ScratchArena::local();
  const auto scratch_frame = arena.frame();
  const std::span<double> rssi = arena.get<double>(streams);
  const std::span<double> noise_var = arena.get<double>(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    rssi[s] = stream_base(links_[s], drift_arg);
    noise_var[s] = 0.0;
  }
  const simd::ShadowGeomView geom = geom_view();
  for (const BodyState& body : bodies) {
    const simd::ShadowParams p = make_shadow_params(config_.body, body);
    kt.shadow_body_pass(geom, streams, p, rssi.data(), noise_var.data());
  }
  for (std::size_t s = 0; s < streams; ++s) {
    const double interference_std =
        interfering && interference_affected_[s] ? interference_std_db_
                                                 : 0.0;
    out[s] = finish_stream(links_[s], rssi[s], noise_var[s],
                           interference_std);
  }
}

std::vector<double> ChannelMatrix::sample(std::span<const BodyState> bodies) {
  std::vector<double> out(links_.size());
  sample(bodies, out);
  return out;
}

}  // namespace fadewich::rf
