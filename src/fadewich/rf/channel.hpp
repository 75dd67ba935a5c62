// Full radio channel between every ordered pair of sensors.
//
// Stream (i -> j) models device j's RSSI measurement of packets sent by
// device i.  The measured value combines:
//
//   RSSI = P_tx - PL(d_ij) - S_ij                (static link budget)
//          - sum_bodies attenuation(body, link)  (body shadowing)
//          + fading_ij(t)                        (AR(1) multipath drift)
//          + N(0, motion noise)                  (bodies moving nearby)
//
// quantised to whole dBm like real radios report it.  Reciprocal streams
// (i->j and j->i) share geometry and body attenuation but carry
// independent fading/noise, which is what makes their variances correlate
// strongly in Fig. 11 without being identical.
//
// Every stream owns its noise generator (seeded deterministically at
// construction), so streams are statistically independent.  One sample()
// call advances every stream by one tick; simulate_week gets its
// parallelism from running whole days (each with its own ChannelMatrix)
// concurrently, not from splitting one channel's streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fadewich/common/rng.hpp"
#include "fadewich/common/simd_kernels.hpp"
#include "fadewich/common/time.hpp"
#include "fadewich/rf/body_shadowing.hpp"
#include "fadewich/rf/fading.hpp"
#include "fadewich/rf/geometry.hpp"
#include "fadewich/rf/jammer.hpp"
#include "fadewich/rf/pathloss.hpp"

namespace fadewich::rf {

struct ChannelConfig {
  double tx_power_dbm = 0.0;          // CC2420-class radio at full power
  double link_shadow_sigma_db = 2.0;  // static per-link shadowing spread
  double direction_offset_sigma_db = 0.7;  // RX calibration asymmetry
  double rssi_floor_dbm = -100.0;
  double rssi_ceiling_dbm = -20.0;
  bool quantize = true;  // report whole dBm like real hardware
  double tick_hz = 5.0;  // sampling rate, used to time interference bursts
  // Ambient interference bursts: short periods during which a random
  // subset of links sees extra RSSI noise (co-channel WiFi traffic,
  // microwave ovens, corridor activity).  These are the paper's "other
  // uncontrolled changes that may result in variation windows even if no
  // one is moving" — the source of MD's false positives.  Set
  // interference_mean_gap_s <= 0 to disable.
  double interference_mean_gap_s = 3600.0;
  double interference_mean_duration_s = 1.4;
  double interference_max_std_db = 3.5;
  double interference_link_fraction = 0.5;
  // Slow baseline drift (thermal cycles, HVAC, equipment warming up):
  // each link's mean level wanders sinusoidally with a random phase.
  // This is why MD's normal profile must self-update (Section IV-C3:
  // "behavior of the streams varies slightly depending on several
  // factors") — a static threshold goes stale within hours.  Amplitude 0
  // disables it.
  double baseline_drift_amplitude_db = 0.0;
  double baseline_drift_period_s = 3.0 * 3600.0;
  // Slow drift of the noise LEVEL shared by the whole band (co-channel
  // load varying over the day): fading output scaled by
  // 1 + f * sin(2*pi*t/T).  This is the drift MD actually feels — its
  // statistic is a standard deviation, so mean drift is invisible but a
  // band-wide variance drift moves the whole s_t distribution.
  // Fraction 0 disables it.
  double noise_drift_fraction = 0.0;
  PathLossConfig path_loss;
  FadingConfig fading;
  BodyModelConfig body;
};

class ChannelMatrix {
 public:
  /// Build channels for all ordered sensor pairs.  Requires >= 2 sensors.
  ChannelMatrix(std::vector<Point> sensors, ChannelConfig config,
                std::uint64_t seed);

  std::size_t sensor_count() const { return sensors_.size(); }
  /// Number of directed streams: m * (m - 1).
  std::size_t stream_count() const { return links_.size(); }

  /// Index of stream (tx -> rx) in sample order.  Requires tx != rx and
  /// both in range.
  std::size_t stream_index(std::size_t tx, std::size_t rx) const;

  /// (tx, rx) pair of a stream index.
  std::pair<std::size_t, std::size_t> stream_pair(std::size_t stream) const;

  /// The physical segment of a stream.
  const Segment& link(std::size_t stream) const;

  /// Advance one tick: sample RSSI on every stream given the current body
  /// states.  Output size equals stream_count().
  void sample(std::span<const BodyState> bodies, std::span<double> out);

  /// Sample with active jammers (Section V-C): each jammer adds
  /// receiver-side interference noise on top of the normal channel.
  void sample(std::span<const BodyState> bodies,
              std::span<const Jammer> jammers, std::span<double> out);

  /// Convenience allocating overload.
  std::vector<double> sample(std::span<const BodyState> bodies);

  const ChannelConfig& config() const { return config_; }

 private:
  struct LinkState {
    Segment segment;
    PrecomputedSegment geom;       // cached length/direction for hot loops
    double static_rssi_dbm = 0.0;  // P_tx - PL - shadowing - offset
    double drift_phase = 0.0;      // baseline drift phase offset
    Ar1Fading fading;
    Rng noise_rng;  // per-stream: keeps streams statistically independent
  };

  void advance_interference();
  /// Deterministic base + the link's fading draw (stream prologue).
  double stream_base(LinkState& ls, double drift_arg) const;
  /// Interference variance, noise draw, clamp, quantise (epilogue).
  double finish_stream(LinkState& ls, double rssi, double noise_var,
                       double interference_std_db) const;
  /// SoA geometry view over every stream.
  simd::ShadowGeomView geom_view() const;

  std::vector<Point> sensors_;
  ChannelConfig config_;
  BodyShadowingModel body_model_;
  LogDistancePathLoss path_loss_;  // constants cached once, not per call
  std::vector<LinkState> links_;
  // Structure-of-arrays copy of every link's cached geometry, filled once
  // at construction: the wide shadowing kernel loads lane j's segment
  // from element j of each array.
  std::vector<double> geo_ax_, geo_ay_, geo_bx_, geo_by_;
  std::vector<double> geo_dirx_, geo_diry_, geo_len_, geo_inv_len2_;
  Rng noise_rng_;  // interference burst scheduling only

  // Interference burst state.
  double interference_gap_ticks_ = 0.0;       // until the next burst
  double interference_remaining_ticks_ = 0.0;  // of the current burst
  double interference_std_db_ = 0.0;
  // Affected-link mask, one byte per stream (not vector<bool>: byte loads
  // keep the hot loop branch-free and the buffer reusable in place).
  // Sized once at construction, overwritten per burst.
  std::vector<std::uint8_t> interference_affected_;

  Tick tick_ = 0;  // samples taken, for the baseline drift clock
};

}  // namespace fadewich::rf
