#include "solver/krylov.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <deque>
#include <span>
#include <sstream>

#include "base/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neuro::solver {

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged: return "converged";
    case StopReason::kMaxIterations: return "max_iterations";
    case StopReason::kStagnated: return "stagnated";
    case StopReason::kDiverged: return "diverged";
    case StopReason::kNumericalInvalid: return "numerical_invalid";
    case StopReason::kDeadlineExceeded: return "deadline_exceeded";
    case StopReason::kBreakdown: return "breakdown";
  }
  return "unknown";
}

namespace {

DistVector like(const DistVector& v) {
  return DistVector(v.global_size(), v.range());
}

/// One watchdog per solve (see WatchdogConfig). poll() returns kConverged
/// while the iteration may continue, the stop reason otherwise; message()
/// then carries the diagnostic detail. Every test except the deadline runs on
/// collective-identical residuals, so all ranks reach the same verdict at the
/// same sample without communicating; the deadline is a collective vote.
class Watchdog {
 public:
  Watchdog(const WatchdogConfig& config, par::Communicator& comm)
      : config_(config), comm_(comm) {}

  StopReason poll(double residual, double initial_residual) {
    ++samples_;
    if (config_.check_finite && !std::isfinite(residual)) {
      std::ostringstream oss;
      oss << "residual became non-finite (" << residual << ") at sample "
          << samples_;
      message_ = oss.str();
      return StopReason::kNumericalInvalid;
    }
    if (config_.divergence_factor > 0.0 && initial_residual > 0.0 &&
        residual > config_.divergence_factor * initial_residual) {
      std::ostringstream oss;
      oss << "residual " << residual << " exceeded " << config_.divergence_factor
          << " x initial (" << initial_residual << ")";
      message_ = oss.str();
      return StopReason::kDiverged;
    }
    if (config_.stagnation_window > 0) {
      window_.push_back(residual);
      const auto span = static_cast<std::size_t>(config_.stagnation_window) + 1;
      if (window_.size() > span) window_.pop_front();
      if (window_.size() == span &&
          window_.back() >
              (1.0 - config_.stagnation_min_decrease) * window_.front()) {
        std::ostringstream oss;
        oss << "residual plateaued at " << residual << " over the last "
            << config_.stagnation_window << " iterations";
        message_ = oss.str();
        return StopReason::kStagnated;
      }
    }
    if (config_.deadline_seconds > 0.0 &&
        samples_ % std::max(1, config_.deadline_check_interval) == 0) {
      // Wall clocks differ between ranks; vote so every rank stops together.
      const double elapsed =
          // NEURO_NONDET_OK(deadline watchdog: outcome is allreduce-voted, rank-uniform, fault-path only)
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
              .count();
      const int expired = elapsed >= config_.deadline_seconds ? 1 : 0;
      if (comm_.allreduce_max(expired) != 0) {
        std::ostringstream oss;
        oss << "solve deadline of " << config_.deadline_seconds
            << " s passed after " << samples_ << " iterations";
        message_ = oss.str();
        return StopReason::kDeadlineExceeded;
      }
    }
    return StopReason::kConverged;
  }

  [[nodiscard]] const std::string& message() const { return message_; }

 private:
  WatchdogConfig config_;
  par::Communicator& comm_;
  // NEURO_NONDET_OK(deadline watchdog epoch: feeds only the voted deadline check above)
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  std::deque<double> window_;
  int samples_ = 0;
  std::string message_;
};

/// Marks a watchdog stop in the flight-recorder ring and metrics registry: a
/// "watchdog.fire" span carrying the reason and last residual, plus a
/// solver.watchdog_fires.<reason> counter. Rank threads never write a
/// post-mortem bundle themselves — the degradation ladder / service layer
/// turns the surfaced stop into a dump once the ranks have joined.
void note_watchdog_fire(const char* solver, StopReason stop, double residual,
                        const std::string& message) {
  obs::metrics()
      .counter(std::string("solver.watchdog_fires.") + stop_reason_name(stop))
      .add(1);
  obs::Span fire = obs::global_span("watchdog.fire");
  if (fire.active()) {
    fire.attr("solver", solver);
    fire.attr("reason", stop_reason_name(stop));
    fire.attr("residual", residual);
    fire.attr("detail", message);
  }
}

}  // namespace

double true_residual_norm(const LinearOperator& A, const DistVector& b,
                          const DistVector& x, par::Communicator& comm) {
  DistVector r = like(b);
  A.apply(x, r, comm);
  r.scale(-1.0, comm);
  r.axpy(1.0, b, comm);
  return r.norm2(comm);
}

SolveStats gmres(const LinearOperator& A, const DistVector& b, DistVector& x,
                 const Preconditioner& M, const SolverConfig& config,
                 par::Communicator& comm) {
  NEURO_REQUIRE(config.gmres_restart >= 1, "gmres: restart must be >= 1");
  const int m = config.gmres_restart;
  SolveStats stats;

  DistVector r = like(b);
  DistVector w = like(b);
  DistVector z = like(b);

  // Initial residual r = b - A x.
  A.apply(x, r, comm);
  r.scale(-1.0, comm);
  r.axpy(1.0, b, comm);
  double beta = r.norm2(comm);
  stats.initial_residual = beta;
  stats.final_residual = beta;
  if (config.record_history) stats.history.push_back(beta);
  if (beta <= config.atol) {
    stats.converged = true;
    stats.stop_reason = StopReason::kConverged;
    return stats;
  }
  const double target = std::max(config.rtol * beta, config.atol);
  Watchdog watchdog(config.watchdog, comm);
  StopReason stop = StopReason::kConverged;

  std::vector<DistVector> V(static_cast<std::size_t>(m) + 1, like(b));
  // Hessenberg (column-major: H[j] has j+2 entries) and Givens rotations.
  std::vector<std::vector<double>> H(static_cast<std::size_t>(m));
  std::vector<double> cs(static_cast<std::size_t>(m)), sn(static_cast<std::size_t>(m));
  std::vector<double> g(static_cast<std::size_t>(m) + 1);

  while (stats.iterations < config.max_iterations) {
    // Restart cycle.
    V[0] = r;
    V[0].scale(1.0 / beta, comm);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    for (; j < m && stats.iterations < config.max_iterations; ++j) {
      // Per-iteration telemetry: the span covers the full Arnoldi step and
      // carries the residual plus the allreduce count actually spent on it
      // (WorkCounter delta), making the MGS-vs-CGS collective budget visible
      // per iteration in the trace.
      obs::Span iter_span = obs::global_span("gmres.iteration");
      const double rounds_before =
          iter_span.active() ? comm.work().current().coll_rounds : 0.0;
      // w = A M⁻¹ v_j (right preconditioning).
      M.apply(V[static_cast<std::size_t>(j)], z, comm);
      A.apply(z, w, comm);
      ++stats.iterations;

      auto& h = H[static_cast<std::size_t>(j)];
      h.assign(static_cast<std::size_t>(j) + 2, 0.0);
      double hlast = 0.0;
      if (config.gmres_orthogonalization == GramSchmidtKind::kClassical) {
        // Classical Gram–Schmidt: the whole projection row plus ‖w‖² travel
        // in ONE batched allreduce, so a restart cycle costs O(m) collectives
        // instead of MGS's O(m²) — the latency term that dominates the
        // paper's Ethernet solve times.
        std::vector<double> d(static_cast<std::size_t>(j) + 2);
        for (int i = 0; i <= j; ++i) {
          d[static_cast<std::size_t>(i)] =
              w.dot_local(V[static_cast<std::size_t>(i)], comm);
        }
        d[static_cast<std::size_t>(j) + 1] = w.dot_local(w, comm);
        comm.allreduce_sum(std::span<double>(d.data(), d.size()));
        const double ww = d[static_cast<std::size_t>(j) + 1];
        double est = ww;
        for (int i = 0; i <= j; ++i) {
          const double hij = d[static_cast<std::size_t>(i)];
          h[static_cast<std::size_t>(i)] = hij;
          est -= hij * hij;  // Pythagoras: ‖w − Vh‖² = ‖w‖² − Σ h²
          w.axpy(-hij, V[static_cast<std::size_t>(i)], comm);
        }
        if (config.gmres_reorthogonalize) {
          // DGKS second pass: one more batched allreduce buys back the
          // orthogonality MGS gets from its sequential projections.
          std::vector<double> d2(static_cast<std::size_t>(j) + 2);
          for (int i = 0; i <= j; ++i) {
            d2[static_cast<std::size_t>(i)] =
                w.dot_local(V[static_cast<std::size_t>(i)], comm);
          }
          d2[static_cast<std::size_t>(j) + 1] = w.dot_local(w, comm);
          comm.allreduce_sum(std::span<double>(d2.data(), d2.size()));
          est = d2[static_cast<std::size_t>(j) + 1];
          for (int i = 0; i <= j; ++i) {
            const double cij = d2[static_cast<std::size_t>(i)];
            h[static_cast<std::size_t>(i)] += cij;
            est -= cij * cij;
            w.axpy(-cij, V[static_cast<std::size_t>(i)], comm);
          }
        }
        // The subtraction cancels when w is nearly in span(V); fall back to a
        // direct norm then. est and ww are collective-identical on every
        // rank, so the branch (and its extra allreduce) is rank-consistent.
        constexpr double kCancellationGuard = 1e-4;
        hlast = est > kCancellationGuard * ww ? std::sqrt(est) : w.norm2(comm);
      } else {
        // Modified Gram–Schmidt (reference): one global reduction per
        // projection; bitwise-stable baseline for the accuracy benchmarks.
        for (int i = 0; i <= j; ++i) {
          const double hij = w.dot(V[static_cast<std::size_t>(i)], comm);
          h[static_cast<std::size_t>(i)] = hij;
          w.axpy(-hij, V[static_cast<std::size_t>(i)], comm);
        }
        hlast = w.norm2(comm);
      }
      h[static_cast<std::size_t>(j) + 1] = hlast;

      // Apply previous Givens rotations to the new column.
      for (int i = 0; i < j; ++i) {
        const double t = cs[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i)] +
                         sn[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i) + 1];
        h[static_cast<std::size_t>(i) + 1] =
            -sn[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i)] +
            cs[static_cast<std::size_t>(i)] * h[static_cast<std::size_t>(i) + 1];
        h[static_cast<std::size_t>(i)] = t;
      }
      // New rotation eliminating h[j+1].
      const double denom = std::hypot(h[static_cast<std::size_t>(j)],
                                      h[static_cast<std::size_t>(j) + 1]);
      if (denom <= 1e-300) {
        // Lucky breakdown: exact solution in the current subspace.
        cs[static_cast<std::size_t>(j)] = 1.0;
        sn[static_cast<std::size_t>(j)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(j)] = h[static_cast<std::size_t>(j)] / denom;
        sn[static_cast<std::size_t>(j)] = h[static_cast<std::size_t>(j) + 1] / denom;
      }
      h[static_cast<std::size_t>(j)] = denom;
      h[static_cast<std::size_t>(j) + 1] = 0.0;
      g[static_cast<std::size_t>(j) + 1] = -sn[static_cast<std::size_t>(j)] *
                                           g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] *= cs[static_cast<std::size_t>(j)];

      const double rho = std::abs(g[static_cast<std::size_t>(j) + 1]);
      stats.final_residual = rho;
      if (config.record_history) stats.history.push_back(rho);
      if (iter_span.active()) {
        iter_span.attr("iteration", stats.iterations);
        iter_span.attr("residual", rho);
        iter_span.attr("allreduces",
                       static_cast<std::int64_t>(
                           comm.work().current().coll_rounds - rounds_before));
        obs::counter("gmres.residual", rho);
      }

      if (hlast <= 1e-300 || rho <= target) {
        ++j;
        break;
      }
      // The column is complete, so a watchdog stop here still yields a valid
      // best-so-far iterate from the back-substitution below.
      stop = watchdog.poll(rho, stats.initial_residual);
      if (stop != StopReason::kConverged) {
        note_watchdog_fire("gmres", stop, rho, watchdog.message());
        ++j;
        break;
      }
      V[static_cast<std::size_t>(j) + 1] = w;
      V[static_cast<std::size_t>(j) + 1].scale(1.0 / hlast, comm);
    }

    // Back-substitute y from the triangular H, then x += M⁻¹ (V y).
    std::vector<double> y(static_cast<std::size_t>(j), 0.0);
    for (int i = j - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (int k = i + 1; k < j; ++k) {
        acc -= H[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] *
               y[static_cast<std::size_t>(k)];
      }
      y[static_cast<std::size_t>(i)] = acc / H[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
    }
    DistVector u = like(b);
    for (int i = 0; i < j; ++i) {
      u.axpy(y[static_cast<std::size_t>(i)], V[static_cast<std::size_t>(i)], comm);
    }
    M.apply(u, z, comm);
    x.axpy(1.0, z, comm);

    // True residual for the restart test.
    A.apply(x, r, comm);
    r.scale(-1.0, comm);
    r.axpy(1.0, b, comm);
    beta = r.norm2(comm);
    stats.final_residual = beta;
    if (beta <= target) {
      stats.converged = true;
      stats.stop_reason = StopReason::kConverged;
      return stats;
    }
    if (stop != StopReason::kConverged) {
      // Watchdog stop: x already holds the best-so-far iterate.
      stats.stop_reason = stop;
      stats.stop_message = watchdog.message();
      return stats;
    }
  }
  stats.converged = stats.final_residual <= target;
  if (stats.converged) {
    stats.stop_reason = StopReason::kConverged;
  } else {
    std::ostringstream oss;
    oss << "gmres: " << config.max_iterations
        << " iterations exhausted at relative residual "
        << stats.relative_residual();
    stats.stop_message = oss.str();
  }
  return stats;
}

SolveStats cg(const LinearOperator& A, const DistVector& b, DistVector& x,
              const Preconditioner& M, const SolverConfig& config,
              par::Communicator& comm) {
  SolveStats stats;
  DistVector r = like(b), z = like(b), p = like(b), Ap = like(b);

  A.apply(x, r, comm);
  r.scale(-1.0, comm);
  r.axpy(1.0, b, comm);
  stats.initial_residual = r.norm2(comm);
  stats.final_residual = stats.initial_residual;
  if (config.record_history) stats.history.push_back(stats.initial_residual);
  if (stats.initial_residual <= config.atol) {
    stats.converged = true;
    stats.stop_reason = StopReason::kConverged;
    return stats;
  }
  const double target = std::max(config.rtol * stats.initial_residual, config.atol);
  Watchdog watchdog(config.watchdog, comm);

  M.apply(r, z, comm);
  p = z;
  double rz = r.dot(z, comm);

  while (stats.iterations < config.max_iterations) {
    obs::Span iter_span = obs::global_span("cg.iteration");
    const double rounds_before =
        iter_span.active() ? comm.work().current().coll_rounds : 0.0;
    A.apply(p, Ap, comm);
    ++stats.iterations;
    const double pAp = p.dot(Ap, comm);
    if (pAp <= 0.0) {
      // Indefinite (or numerically indefinite) operator: CG's contract is
      // broken, but that is an input-class failure, not invariant corruption —
      // report it as a typed breakdown so the caller can switch solvers.
      std::ostringstream oss;
      oss << "cg: matrix is not positive definite (pAp = " << pAp << ")";
      stats.stop_reason = StopReason::kBreakdown;
      stats.stop_message = oss.str();
      return stats;
    }
    const double alpha = rz / pAp;
    x.axpy(alpha, p, comm);
    r.axpy(-alpha, Ap, comm);

    // z = M⁻¹ r is needed for the next search direction anyway; computing it
    // before the convergence test lets ‖r‖² and rᵀz share one allreduce
    // (2 collectives per iteration). The span reduction sums each component
    // in rank order; the only waste is one preconditioner apply on the final
    // iteration.
    M.apply(r, z, comm);
    std::array<double, 2> d{r.dot_local(r, comm), r.dot_local(z, comm)};
    comm.allreduce_sum(std::span<double>(d.data(), d.size()));
    const double rnorm = std::sqrt(d[0]);
    const double rz_new = d[1];
    stats.final_residual = rnorm;
    if (config.record_history) stats.history.push_back(rnorm);
    if (iter_span.active()) {
      iter_span.attr("iteration", stats.iterations);
      iter_span.attr("residual", rnorm);
      iter_span.attr("allreduces",
                     static_cast<std::int64_t>(
                         comm.work().current().coll_rounds - rounds_before));
      obs::counter("cg.residual", rnorm);
    }
    if (rnorm <= target) {
      stats.converged = true;
      stats.stop_reason = StopReason::kConverged;
      return stats;
    }
    const StopReason stop = watchdog.poll(rnorm, stats.initial_residual);
    if (stop != StopReason::kConverged) {
      note_watchdog_fire("cg", stop, rnorm, watchdog.message());
      stats.stop_reason = stop;
      stats.stop_message = watchdog.message();
      return stats;
    }

    const double betak = rz_new / rz;
    rz = rz_new;
    // p = z + beta p
    p.scale(betak, comm);
    p.axpy(1.0, z, comm);
  }
  std::ostringstream oss;
  oss << "cg: " << config.max_iterations
      << " iterations exhausted at relative residual " << stats.relative_residual();
  stats.stop_message = oss.str();
  return stats;
}

SolveStats bicgstab(const LinearOperator& A, const DistVector& b, DistVector& x,
                    const Preconditioner& M, const SolverConfig& config,
                    par::Communicator& comm) {
  SolveStats stats;
  DistVector r = like(b), r0 = like(b), p = like(b), v = like(b), s = like(b),
             t = like(b), ph = like(b), sh = like(b);

  A.apply(x, r, comm);
  r.scale(-1.0, comm);
  r.axpy(1.0, b, comm);
  // Same collective and the same arithmetic as r.norm2(comm); keeping rr0
  // around seeds the first rho without another reduction (r0 == r at entry,
  // so r0ᵀr == rᵀr).
  const double rr0 = r.dot(r, comm);
  stats.initial_residual = std::sqrt(rr0);
  stats.final_residual = stats.initial_residual;
  if (config.record_history) stats.history.push_back(stats.initial_residual);
  if (stats.initial_residual <= config.atol) {
    stats.converged = true;
    stats.stop_reason = StopReason::kConverged;
    return stats;
  }
  const double target = std::max(config.rtol * stats.initial_residual, config.atol);
  Watchdog watchdog(config.watchdog, comm);

  r0 = r;
  double rho = 1.0, alpha = 1.0, omega = 1.0;
  double rho_pending = rr0;  ///< r0ᵀr carried from the last fused allreduce

  const auto breakdown = [&stats](const char* what) {
    stats.stop_reason = StopReason::kBreakdown;
    stats.stop_message = std::string("bicgstab: breakdown (") + what + ")";
  };

  while (stats.iterations < config.max_iterations) {
    obs::Span iter_span = obs::global_span("bicgstab.iteration");
    const double rounds_before =
        iter_span.active() ? comm.work().current().coll_rounds : 0.0;
    // r0ᵀr was batched into the allreduce that ended the previous iteration
    // (or equals rr0 on entry), so the loop head is collective-free.
    const double rho_new = rho_pending;
    if (std::abs(rho_new) < 1e-300) {
      breakdown("rho -> 0");
      break;
    }
    if (stats.iterations == 0) {
      p = r;
    } else {
      const double beta = (rho_new / rho) * (alpha / omega);
      // p = r + beta (p - omega v)
      p.axpy(-omega, v, comm);
      p.scale(beta, comm);
      p.axpy(1.0, r, comm);
    }
    rho = rho_new;

    M.apply(p, ph, comm);
    A.apply(ph, v, comm);
    ++stats.iterations;
    const double r0v = r0.dot(v, comm);
    if (std::abs(r0v) < 1e-300) {
      breakdown("r0.v -> 0");
      break;
    }
    alpha = rho / r0v;

    s = r;
    s.axpy(-alpha, v, comm);
    const double snorm = s.norm2(comm);
    if (snorm <= target) {
      x.axpy(alpha, ph, comm);
      stats.final_residual = snorm;
      if (config.record_history) stats.history.push_back(snorm);
      if (iter_span.active()) {
        iter_span.attr("iteration", stats.iterations);
        iter_span.attr("residual", snorm);
        iter_span.attr("allreduces",
                       static_cast<std::int64_t>(
                           comm.work().current().coll_rounds - rounds_before));
        obs::counter("bicgstab.residual", snorm);
      }
      stats.converged = true;
      stats.stop_reason = StopReason::kConverged;
      return stats;
    }

    M.apply(s, sh, comm);
    A.apply(sh, t, comm);
    // tᵀt and tᵀs share one allreduce (both needed for omega).
    std::array<double, 2> tts{t.dot_local(t, comm), t.dot_local(s, comm)};
    comm.allreduce_sum(std::span<double>(tts.data(), tts.size()));
    const double tt = tts[0];
    if (tt < 1e-300) {
      breakdown("t.t -> 0");
      break;
    }
    omega = tts[1] / tt;

    x.axpy(alpha, ph, comm);
    x.axpy(omega, sh, comm);
    r = s;
    r.axpy(-omega, t, comm);

    // ‖r‖² and the next iteration's r0ᵀr share the closing allreduce, so
    // BiCGStab runs 4 collectives per iteration (rank-ordered span reduction).
    std::array<double, 2> rr{r.dot_local(r, comm), r0.dot_local(r, comm)};
    comm.allreduce_sum(std::span<double>(rr.data(), rr.size()));
    const double rnorm = std::sqrt(rr[0]);
    rho_pending = rr[1];
    stats.final_residual = rnorm;
    if (config.record_history) stats.history.push_back(rnorm);
    if (iter_span.active()) {
      iter_span.attr("iteration", stats.iterations);
      iter_span.attr("residual", rnorm);
      iter_span.attr("allreduces",
                     static_cast<std::int64_t>(
                         comm.work().current().coll_rounds - rounds_before));
      obs::counter("bicgstab.residual", rnorm);
    }
    if (rnorm <= target) {
      stats.converged = true;
      stats.stop_reason = StopReason::kConverged;
      return stats;
    }
    const StopReason stop = watchdog.poll(rnorm, stats.initial_residual);
    if (stop != StopReason::kConverged) {
      note_watchdog_fire("bicgstab", stop, rnorm, watchdog.message());
      stats.stop_reason = stop;
      stats.stop_message = watchdog.message();
      return stats;
    }
    if (std::abs(omega) < 1e-300) {
      breakdown("omega -> 0");
      break;
    }
  }
  if (stats.stop_reason == StopReason::kMaxIterations &&
      stats.stop_message.empty()) {
    std::ostringstream oss;
    oss << "bicgstab: " << config.max_iterations
        << " iterations exhausted at relative residual "
        << stats.relative_residual();
    stats.stop_message = oss.str();
  }
  return stats;
}

SolveStats solve(KrylovKind kind, const LinearOperator& A, const DistVector& b,
                 DistVector& x, const Preconditioner& M, const SolverConfig& config,
                 par::Communicator& comm) {
  switch (kind) {
    case KrylovKind::kGmres:
      return gmres(A, b, x, M, config, comm);
    case KrylovKind::kCg:
      return cg(A, b, x, M, config, comm);
    case KrylovKind::kBicgstab:
      return bicgstab(A, b, x, M, config, comm);
  }
  NEURO_REQUIRE(false, "solve: unknown Krylov kind");
  return {};
}

}  // namespace neuro::solver
