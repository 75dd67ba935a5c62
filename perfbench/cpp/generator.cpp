#include "generator.hpp"

#include <cmath>
#include <cstring>

#include "fadewich/common/error.hpp"

namespace perfbench {

namespace fw = fadewich;

namespace {

std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t z) {
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

enum Salt : std::uint64_t {
  kSample = 1,
  kDrop,
  kDuplicate,
  kStraggle,
  kFlip,
  kFlipBit,
  kBase,
  kKey,
  kSettle,
  kBurst,
};

}  // namespace

fw::fleet::ShardConfig paper_office() {
  fw::fleet::ShardConfig config;
  config.streams = kStreams;
  config.workstations = kWorkstations;
  config.system = fw::fleet::default_shard_system();
  return config;
}

Tick training_ticks() {
  const fw::fleet::ShardConfig office = paper_office();
  const fw::TickRate rate(office.system.tick_hz);
  const Tick cycle = rate.to_ticks_ceil(office.burst) * 2 +
                     rate.to_ticks_ceil(office.away) +
                     rate.to_ticks_ceil(office.rest);
  return rate.to_ticks_ceil(office.settle) +
         cycle * static_cast<Tick>(office.workstations * office.train_rounds);
}

const std::array<float, 65536>& normal_table() {
  static const std::array<float, 65536> table = [] {
    std::array<float, 65536> t{};
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    for (std::size_t i = 0; i < t.size(); i += 2) {
      const double u1 = (static_cast<double>(mix(i) >> 11) + 1.0) *
                        0x1.0p-53;
      const double u2 = unit(mix(i + 1));
      const double r = std::sqrt(-2.0 * std::log(u1));
      t[i] = static_cast<float>(r * std::cos(kTwoPi * u2));
      t[i + 1] = static_cast<float>(r * std::sin(kTwoPi * u2));
    }
    return t;
  }();
  return table;
}

CampusGenerator::CampusGenerator(std::uint64_t seed, std::size_t offices,
                                 Impairment impairment)
    : seed_(seed), offices_(offices), impairment_(impairment) {
  if (offices < 1 || offices > 65535) {
    throw fw::Error("campus generator: offices must be in [1, 65535]");
  }
  const fw::fleet::ShardConfig office = paper_office();
  const fw::TickRate rate(office.system.tick_hz);
  burst_ = rate.to_ticks_ceil(office.burst);
  away_ = rate.to_ticks_ceil(office.away);
  const Tick rest = rate.to_ticks_ceil(office.rest);
  cycle_ = burst_ + away_ + burst_ + rest;

  const std::uint64_t master = mix(seed ^ kKey);
  keys_.reserve(offices);
  base_dbm_.resize(offices * kStreams);
  settle_seconds_.resize(offices);
  settle_.resize(offices);
  for (std::size_t o = 0; o < offices; ++o) {
    const auto shift = draw(o, 0, 0, kSettle) %
                       static_cast<std::uint64_t>(cycle_);
    settle_seconds_[o] =
        office.settle + static_cast<double>(shift) / office.system.tick_hz;
    settle_[o] = rate.to_ticks_ceil(settle_seconds_[o]);
    keys_.push_back(
        fw::net::derive_station_key(master, static_cast<std::uint16_t>(o)));
    for (std::size_t s = 0; s < kStreams; ++s) {
      // Path loss between -45 and -80 dBm, fixed per link.
      base_dbm_[o * kStreams + s] = static_cast<float>(
          -80.0 + 35.0 * unit(draw(o, 0, s, kBase)));
    }
  }
  (void)normal_table();
}

std::uint64_t CampusGenerator::draw(std::size_t office, Tick tick,
                                    std::uint64_t slot,
                                    std::uint64_t salt) const {
  // Chained, never XOR-combined: seed ^ office alone would make seed s
  // office o the same office as seed s ^ k, office o ^ k.
  std::uint64_t z = mix(seed_ ^ (salt << 56));
  z = mix(z ^ office);
  z = mix(z ^ static_cast<std::uint64_t>(tick));
  return mix(z ^ slot);
}

fw::fleet::ShardConfig CampusGenerator::office_config(
    std::size_t office) const {
  fw::fleet::ShardConfig config = paper_office();
  config.settle = settle_seconds_[office];
  return config;
}

double CampusGenerator::sigma(std::size_t office, Tick tick,
                              std::size_t stream) const {
  constexpr double kQuiet = 0.4;
  const Tick settle = settle_[office];
  if (tick < settle) return kQuiet;
  const Tick cycle = (tick - settle) / cycle_;
  const auto workstation = static_cast<std::size_t>(
      cycle % static_cast<Tick>(kWorkstations));
  const Tick offset = (tick - settle) % cycle_;
  // OfficeShard's owner rule: only the cycle owner's streams move.
  if (stream * kWorkstations / kStreams != workstation) return kQuiet;
  const bool moving =
      offset < burst_ ||
      (offset >= burst_ + away_ && offset < burst_ + away_ + burst_);
  if (!moving) return kQuiet;
  // People move differently: each cycle's bursts get their own strength,
  // so detection (and deauth) latency has a real spread.
  return 2.0 + 2.5 * unit(draw(office, cycle, 0, kBurst));
}

std::int8_t CampusGenerator::rssi(std::size_t office, Tick tick,
                                  std::size_t stream) const {
  const float normal =
      normal_table()[draw(office, tick, stream, kSample) & 0xffff];
  return fw::net::wire_encode_dbm(base_dbm_[office * kStreams + stream] +
                                  sigma(office, tick, stream) * normal);
}

bool CampusGenerator::chance(std::size_t office, Tick tick, std::size_t tx,
                             std::uint64_t salt, double p) const {
  return p > 0.0 && unit(draw(office, tick, tx, salt)) < p;
}

bool CampusGenerator::dropped(std::size_t office, Tick tick,
                              std::size_t tx) const {
  return chance(office, tick, tx, kDrop, impairment_.drop);
}

bool CampusGenerator::duplicated(std::size_t office, Tick tick,
                                 std::size_t tx) const {
  return !dropped(office, tick, tx) &&
         chance(office, tick, tx, kDuplicate, impairment_.duplicate);
}

bool CampusGenerator::straggles(std::size_t office, Tick tick,
                                std::size_t tx) const {
  return !dropped(office, tick, tx) &&
         chance(office, tick, tx, kStraggle, impairment_.straggle);
}

bool CampusGenerator::flipped(std::size_t office, Tick tick,
                              std::size_t tx) const {
  return !dropped(office, tick, tx) &&
         chance(office, tick, tx, kFlip, impairment_.flip);
}

bool CampusGenerator::tick_straggles(std::size_t office, Tick tick) const {
  if (impairment_.straggle <= 0.0) return false;
  for (std::size_t tx = 0; tx < kDevices; ++tx) {
    if (straggles(office, tick, tx)) return true;
  }
  return false;
}

void CampusGenerator::encode_frame(std::size_t office, Tick tick,
                                   std::size_t tx,
                                   std::vector<std::uint8_t>& out) const {
  std::array<fw::net::WireReport, kReportsPerFrame> reports;
  std::size_t n = 0;
  for (std::size_t rx = 0; rx < kDevices; ++rx) {
    if (rx == tx) continue;
    const std::size_t stream = tx * (kDevices - 1) + (rx < tx ? rx : rx - 1);
    reports[n++] = {static_cast<fw::net::DeviceId>(rx),
                    rssi(office, tick, stream)};
  }
  // Sequence numbers are stateless: a sensor numbers its frames by
  // (tick, transmitter), so a duplicate repeats its original's number.
  const fw::net::FrameHeader header{
      static_cast<std::uint16_t>(office),
      static_cast<std::uint64_t>(tick) * kDevices + tx, tick,
      static_cast<fw::net::DeviceId>(tx)};
  fw::net::encode_frame(header, reports, out, &keys_[office]);
}

void CampusGenerator::encode_office_tick(std::size_t office, Tick tick,
                                         std::uint8_t* out) const {
  thread_local std::vector<std::uint8_t> scratch;
  scratch.clear();
  for (std::size_t tx = 0; tx < kDevices; ++tx) {
    encode_frame(office, tick, tx, scratch);
  }
  std::memcpy(out, scratch.data(), kOfficeTickBytes);
}

void CampusGenerator::clean_block(Tick from, Tick ticks,
                                  std::vector<std::uint8_t>& out,
                                  fw::exec::ThreadPool* pool) const {
  const std::size_t per_tick = offices_ * kOfficeTickBytes;
  out.resize(static_cast<std::size_t>(ticks) * per_tick);
  const auto office_rows = [&](std::size_t office) {
    for (Tick t = 0; t < ticks; ++t) {
      encode_office_tick(office, from + t,
                         out.data() + static_cast<std::size_t>(t) * per_tick +
                             office * kOfficeTickBytes);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, offices_, office_rows);
  } else {
    for (std::size_t o = 0; o < offices_; ++o) office_rows(o);
  }
}

void CampusGenerator::impaired_call(Tick tick, std::vector<std::uint8_t>& out,
                                    WireLedger& ledger) const {
  const std::size_t start = out.size();
  const auto emit = [&](std::size_t office, Tick t, std::size_t tx) {
    const std::size_t at = out.size();
    encode_frame(office, t, tx, out);
    ++ledger.frames_emitted;
    if (flipped(office, t, tx)) {
      const std::uint64_t bit = draw(office, t, tx, kFlipBit) %
                                ((kFrameBytes - kFlipFrom) * 8);
      out[at + kFlipFrom + bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      ++ledger.flipped;
    }
  };
  for (std::size_t o = 0; o < offices_; ++o) {
    for (std::size_t tx = 0; tx < kDevices; ++tx) {
      ledger.reports_generated += kReportsPerFrame;
      if (dropped(o, tick, tx)) {
        ++ledger.frames_dropped;
        continue;
      }
      if (straggles(o, tick, tx)) {
        ++ledger.stragglers;
        continue;
      }
      emit(o, tick, tx);
      if (duplicated(o, tick, tx)) {
        ledger.reports_generated += kReportsPerFrame;
        ++ledger.duplicates;
        emit(o, tick, tx);
      }
    }
    // The office's late frames of the previous tick arrive behind its
    // frames of this one: the station sees its tick go backwards.
    if (tick > 0) {
      for (std::size_t tx = 0; tx < kDevices; ++tx) {
        if (straggles(o, tick - 1, tx)) emit(o, tick - 1, tx);
      }
    }
  }
  ledger.bytes += out.size() - start;
}

fw::fleet::OfficeShard::RowSource CampusGenerator::direct_source(
    std::size_t office) const {
  return [this, office](Tick from, std::size_t count,
                        fw::common::FlatMatrix& block) {
    for (std::size_t i = 0; i < count; ++i) {
      double* row = block.row(i);
      const Tick tick = from + static_cast<Tick>(i);
      for (std::size_t s = 0; s < kStreams; ++s) {
        row[s] = static_cast<double>(rssi(office, tick, s));
      }
    }
  };
}

}  // namespace perfbench
