// Standalone SIMD kernel selftest: bit-equality of every kernel table
// against the scalar reference, with no gtest dependency, so it can be
// cross-compiled statically (aarch64-linux-gnu-g++ tools/simd_selftest.cpp
// src/fadewich/common/simd.cpp src/fadewich/common/simd_kernels.cpp) and
// run under qemu-user to exercise the NEON table off-host.  Build the
// kernel translation unit with -ffp-contract=off — the bit-exact contract
// assumes no fused multiply-adds.
//
// Exit status: 0 when every entry of every available table matches the
// scalar table bit-for-bit over ragged lengths, nonzero otherwise.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "fadewich/common/simd.hpp"
#include "fadewich/common/simd_kernels.hpp"

namespace {

using namespace fadewich::simd;

// Lengths straddling every lane width the shim builds (1, 2, 4), same
// set the gtest equivalence suite uses: vector main loop, scalar tail,
// and the empty case.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 257};

int failures = 0;

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

void check(double got, double want, const char* what, const char* isa,
           std::size_t lane) {
  if (bits(got) == bits(want)) return;
  ++failures;
  if (failures <= 20) {
    std::fprintf(stderr, "FAIL %s [%s] lane %zu: %.17g vs %.17g\n", what,
                 isa, lane, got, want);
  }
}

// Self-contained deterministic generator (splitmix64) so the selftest
// needs no library sources beyond the two simd translation units.
struct Prng {
  std::uint64_t state;
  explicit Prng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    const double u =
        static_cast<double>(next() >> 11) * 0x1.0p-53;  // [0, 1)
    return lo + u * (hi - lo);
  }
  std::vector<double> vec(std::size_t n, double lo, double hi) {
    std::vector<double> v(n);
    for (double& x : v) x = uniform(lo, hi);
    return v;
  }
};

std::vector<const KernelTable*> available_tables() {
  std::vector<const KernelTable*> tables{&kernel_table(Isa::kScalar)};
  for (Isa isa : {Isa::kSse2, Isa::kNeon, Isa::kAvx2}) {
    const KernelTable& t = kernel_table(isa);
    bool seen = false;
    for (const KernelTable* have : tables) seen = seen || have->isa == t.isa;
    if (!seen) tables.push_back(&t);
  }
  return tables;
}

void check_exp_block(const std::vector<const KernelTable*>& tables) {
  Prng prng(101);
  for (std::size_t n : kLengths) {
    std::vector<double> xs = prng.vec(n, -750.0, 715.0);
    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               5e-324,
                               -5e-324,
                               0.0,
                               -0.0,
                               -709.0};
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 0) {
        xs[i] = specials[(i / 3) % (sizeof(specials) / sizeof(double))];
      }
    }
    std::vector<double> ref(n, -1.0);
    tables[0]->exp_block(xs.data(), ref.data(), n);
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      std::vector<double> out(n, -2.0);
      tables[ti]->exp_block(xs.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        check(out[i], ref[i], "exp_block", isa_name(tables[ti]->isa), i);
      }
    }
  }
}

void check_kde_blocks(const std::vector<const KernelTable*>& tables) {
  Prng prng(202);
  for (std::size_t count : kLengths) {
    for (std::size_t nq : {std::size_t{1}, std::size_t{8}, std::size_t{13}}) {
      const std::vector<double> samples = prng.vec(count, -5.0, 5.0);
      const std::vector<double> xs = prng.vec(nq, -6.0, 6.0);
      const double inv_bw = 1.0 / 0.37;
      std::vector<double> exp_ref(nq, 0.125), erf_ref(nq, 0.25);
      tables[0]->kde_expsum_block(samples.data(), count, xs.data(), nq,
                                  inv_bw, exp_ref.data());
      tables[0]->kde_erfsum_block(samples.data(), count, xs.data(), nq,
                                  inv_bw, erf_ref.data());
      for (std::size_t ti = 1; ti < tables.size(); ++ti) {
        std::vector<double> exp_out(nq, 0.125), erf_out(nq, 0.25);
        tables[ti]->kde_expsum_block(samples.data(), count, xs.data(), nq,
                                     inv_bw, exp_out.data());
        tables[ti]->kde_erfsum_block(samples.data(), count, xs.data(), nq,
                                     inv_bw, erf_out.data());
        for (std::size_t j = 0; j < nq; ++j) {
          check(exp_out[j], exp_ref[j], "kde_expsum",
                isa_name(tables[ti]->isa), j);
          check(erf_out[j], erf_ref[j], "kde_erfsum",
                isa_name(tables[ti]->isa), j);
        }
      }
    }
  }
}

void check_svm_blocks(const std::vector<const KernelTable*>& tables) {
  Prng prng(303);
  const std::size_t dim = 29;
  for (std::size_t nq : kLengths) {
    const std::vector<double> s = prng.vec(dim, -2.0, 2.0);
    const std::vector<double> qt = prng.vec(dim * nq, -2.0, 2.0);
    std::vector<double> dot_ref(nq, 0.5), sq_ref(nq, 0.5);
    std::vector<double> rbf_ref(nq, -0.75);
    tables[0]->dot_block(s.data(), dim, qt.data(), nq, nq, dot_ref.data());
    tables[0]->sqdist_block(s.data(), dim, qt.data(), nq, nq, sq_ref.data());
    tables[0]->rbf_accum_block(sq_ref.data(), nq, 1.75, 0.31, rbf_ref.data());
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      std::vector<double> dot_out(nq, 0.5), sq_out(nq, 0.5);
      std::vector<double> rbf_out(nq, -0.75);
      tables[ti]->dot_block(s.data(), dim, qt.data(), nq, nq, dot_out.data());
      tables[ti]->sqdist_block(s.data(), dim, qt.data(), nq, nq,
                               sq_out.data());
      tables[ti]->rbf_accum_block(sq_out.data(), nq, 1.75, 0.31,
                                  rbf_out.data());
      for (std::size_t j = 0; j < nq; ++j) {
        check(dot_out[j], dot_ref[j], "dot_block", isa_name(tables[ti]->isa),
              j);
        check(sq_out[j], sq_ref[j], "sqdist_block",
              isa_name(tables[ti]->isa), j);
        check(rbf_out[j], rbf_ref[j], "rbf_accum", isa_name(tables[ti]->isa),
              j);
      }
    }
  }
}

void check_welford(const std::vector<const KernelTable*>& tables) {
  Prng prng(404);
  const double window_n = 24.0;
  for (std::size_t n : kLengths) {
    const std::vector<double> mean0 = prng.vec(n, -1.0, 1.0);
    const std::vector<double> m2_0 = prng.vec(n, 0.0, 4.0);
    const std::vector<double> slot0 = prng.vec(n, -3.0, 3.0);
    std::vector<std::vector<double>> rows;
    for (int r = 0; r < 5; ++r) rows.push_back(prng.vec(n, -3.0, 3.0));

    const auto run = [&](const KernelTable& kt) {
      std::vector<double> mean = mean0, m2 = m2_0, slot = slot0;
      std::vector<double> sd(n, 0.0);
      for (int r = 0; r < 5; ++r) {
        if (r % 2 == 0) {
          kt.welford_push_full(slot.data(), rows[r].data(), mean.data(),
                               m2.data(), window_n, n);
        } else {
          kt.welford_push_grow(slot.data(), rows[r].data(), mean.data(),
                               m2.data(), static_cast<double>(r + 1), n);
        }
      }
      kt.stddev_from_m2(m2.data(), window_n, sd.data(), n);
      mean.insert(mean.end(), m2.begin(), m2.end());
      mean.insert(mean.end(), slot.begin(), slot.end());
      mean.insert(mean.end(), sd.begin(), sd.end());
      return mean;
    };

    const std::vector<double> ref = run(*tables[0]);
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      const std::vector<double> out = run(*tables[ti]);
      for (std::size_t i = 0; i < out.size(); ++i) {
        check(out[i], ref[i], "welford", isa_name(tables[ti]->isa), i);
      }
    }
  }
}

void check_column_reductions(const std::vector<const KernelTable*>& tables) {
  Prng prng(505);
  const std::size_t rows = 11, lag = 3;
  for (std::size_t n : kLengths) {
    const std::size_t stride = n + 2;
    const std::vector<double> data = prng.vec(rows * stride, -4.0, 4.0);
    std::vector<double> mean_ref(n, 0.0), dev_ref(n, 0.0), lag_ref(n, 0.0);
    tables[0]->colsum(data.data(), rows, stride, mean_ref.data(), n);
    for (double& m : mean_ref) m /= static_cast<double>(rows);
    tables[0]->coldev2(data.data(), rows, stride, mean_ref.data(),
                       dev_ref.data(), n);
    tables[0]->collagprod(data.data(), rows, lag, stride, mean_ref.data(),
                          lag_ref.data(), n);
    for (std::size_t ti = 1; ti < tables.size(); ++ti) {
      std::vector<double> mean(n, 0.0), dev(n, 0.0), lagp(n, 0.0);
      tables[ti]->colsum(data.data(), rows, stride, mean.data(), n);
      for (double& m : mean) m /= static_cast<double>(rows);
      tables[ti]->coldev2(data.data(), rows, stride, mean.data(), dev.data(),
                          n);
      tables[ti]->collagprod(data.data(), rows, lag, stride, mean.data(),
                             lagp.data(), n);
      for (std::size_t c = 0; c < n; ++c) {
        check(mean[c], mean_ref[c], "colsum", isa_name(tables[ti]->isa), c);
        check(dev[c], dev_ref[c], "coldev2", isa_name(tables[ti]->isa), c);
        check(lagp[c], lag_ref[c], "collagprod", isa_name(tables[ti]->isa),
              c);
      }
    }
  }
}

void check_shadow_pass(const std::vector<const KernelTable*>& tables) {
  Prng prng(606);
  for (std::size_t n : kLengths) {
    std::vector<double> ax(n), ay(n), bx(n), by(n), dirx(n), diry(n), len(n),
        il2(n);
    for (std::size_t j = 0; j < n; ++j) {
      ax[j] = prng.uniform(0.0, 8.0);
      ay[j] = prng.uniform(0.0, 6.0);
      bx[j] = prng.uniform(0.0, 8.0);
      by[j] = prng.uniform(0.0, 6.0);
      dirx[j] = bx[j] - ax[j];
      diry[j] = by[j] - ay[j];
      const double l2 = dirx[j] * dirx[j] + diry[j] * diry[j];
      len[j] = std::sqrt(l2);
      il2[j] = l2 > 0.0 ? 1.0 / l2 : 0.0;
    }
    const ShadowGeomView g{ax.data(),   ay.data(),   bx.data(),  by.data(),
                           dirx.data(), diry.data(), len.data(), il2.data()};
    for (int noisy = 0; noisy < 2; ++noisy) {
      ShadowParams p;
      p.px = prng.uniform(0.0, 8.0);
      p.py = prng.uniform(0.0, 6.0);
      p.max_attenuation_db = 9.0;
      p.shadow_decay_m = 0.18;
      p.motion_decay_m = 0.55;
      p.ambient_decay_m = 4.0;
      if (noisy) {
        p.motion_coeff = 3.0;
        p.ambient_coeff = 0.9;
      }
      const std::vector<double> rssi0 = prng.vec(n, -80.0, -40.0);
      const std::vector<double> nv0 = prng.vec(n, 0.0, 2.0);
      std::vector<double> rssi_ref = rssi0, nv_ref = nv0;
      tables[0]->shadow_body_pass(g, n, p, rssi_ref.data(), nv_ref.data());
      for (std::size_t ti = 1; ti < tables.size(); ++ti) {
        std::vector<double> rssi = rssi0, nv = nv0;
        tables[ti]->shadow_body_pass(g, n, p, rssi.data(), nv.data());
        for (std::size_t j = 0; j < n; ++j) {
          check(rssi[j], rssi_ref[j], "shadow rssi",
                isa_name(tables[ti]->isa), j);
          check(nv[j], nv_ref[j], "shadow noise_var",
                isa_name(tables[ti]->isa), j);
        }
      }
    }
  }
}

// The one integer entry: the 32-bit register must match exactly over
// lengths straddling the 16- and 64-byte fold blocks and every start
// alignment of a 16-byte block.
void check_crc32(const std::vector<const KernelTable*>& tables) {
  Prng prng(707);
  std::vector<unsigned char> buf(300 + 16);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(prng.next());
  for (std::size_t n = 0; n <= 300; ++n) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      const auto state = static_cast<std::uint32_t>(prng.next());
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t ref = tables[0]->crc32_update(state, p, n);
      for (std::size_t ti = 1; ti < tables.size(); ++ti) {
        if (tables[ti]->crc32_update(state, p, n) == ref) continue;
        ++failures;
        if (failures <= 20) {
          std::fprintf(stderr, "FAIL crc32_update [%s] len %zu offset %zu\n",
                       isa_name(tables[ti]->isa), n, offset);
        }
      }
    }
  }
}

void check_fast_exp_specials() {
  const double inf = std::numeric_limits<double>::infinity();
  struct {
    double x, want;
  } cases[] = {{0.0, 1.0}, {-0.0, 1.0},  {inf, inf},
               {-inf, 0.0}, {-746.0, 0.0}, {711.0, inf}};
  for (const auto& c : cases) {
    check(fast_exp(c.x), c.want, "fast_exp special", "host", 0);
  }
  if (!std::isnan(fast_exp(std::numeric_limits<double>::quiet_NaN()))) {
    ++failures;
    std::fprintf(stderr, "FAIL fast_exp(NaN) is not NaN\n");
  }
}

}  // namespace

int main() {
  const auto tables = available_tables();
  std::printf("simd_selftest: best ISA %s, %zu table(s):",
              isa_name(best_supported_isa()), tables.size());
  for (const KernelTable* t : tables) std::printf(" %s", isa_name(t->isa));
  std::printf("\n");
  if (tables.size() < 2) {
    // A scalar-only build compares nothing; flag it so a misconfigured
    // cross-compile (no NEON baseline) cannot silently pass.
    std::fprintf(stderr, "FAIL only the scalar table is available\n");
    return 2;
  }

  check_fast_exp_specials();
  check_exp_block(tables);
  check_kde_blocks(tables);
  check_svm_blocks(tables);
  check_welford(tables);
  check_column_reductions(tables);
  check_shadow_pass(tables);
  check_crc32(tables);

  if (failures != 0) {
    std::fprintf(stderr, "simd_selftest: %d mismatch(es)\n", failures);
    return 1;
  }
  std::printf("simd_selftest: all kernel tables bit-identical to scalar\n");
  return 0;
}
