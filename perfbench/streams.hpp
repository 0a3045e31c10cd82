/**
 * @file
 * Seeded input generation for the three workloads. Every request the
 * benchmark sends is a pure function of (seed, workload, index): the
 * same seed yields byte-identical request streams, and nothing a
 * request carries depends on an earlier reply.
 */

#ifndef PERFBENCH_STREAMS_HPP
#define PERFBENCH_STREAMS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench
{

/** splitmix64 finalizer: the benchmark's counter-based generator. */
std::uint64_t mix64(std::uint64_t x);

/** Deterministic uniform in [0, 1) keyed by (seed, a, b). */
double unitDraw(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/** Bytes of a QP in a fixed layout (dimensions, CSC arrays, vectors),
 *  for stream-identity checks. */
std::string serializeQp(const rsqp::QpProblem& qp);

// ---------------------------------------------------------------------
// mpc-closed

/** One closed-loop MPC controller: a fixed control structure. */
struct MpcClient
{
    rsqp::Index nx = 0;
    std::uint64_t key = 0;   ///< stream key (seed and client index)
    rsqp::QpProblem base;
};

/** Steps after which an mpc-closed controller's measured state and
 *  reference repeat: a 45 s window at the 1 s control period holds
 *  three whole periods. */
inline constexpr double kMpcTrajectoryPeriod = 15.0;

/** `count` controllers cycling over state sizes 10, 20, 30. */
std::vector<MpcClient> mpcClients(std::uint64_t seed, unsigned count);

/**
 * Step `k` of a controller: a new initial-state right-hand side on the
 * dynamics rows of stage 0 (l = u) and a new state-tracking linear
 * cost, both smooth seeded trajectories. Sparsity is the base's, so
 * after the first step every request takes the parametric route.
 */
rsqp::QpProblem mpcStep(const MpcClient& client, std::uint64_t k);

// ---------------------------------------------------------------------
// mixed-open

/** Structure families of the mixed-open pool. */
enum class Family
{
    Control,     ///< Realtime MPC chains
    Lasso,       ///< Interactive regularization sweeps
    Portfolio,   ///< Batch rebalance bursts
    Infeasible,  ///< valid but primal-infeasible requests
};

/** Structures and session layout of mixed-open. */
struct MixedPool
{
    std::vector<rsqp::QpProblem> structures;
    std::vector<Family> family;
    /** Control state size nx per structure (0 for other families). */
    std::vector<rsqp::Index> stateSize;
    /** Structure ids per family. */
    std::vector<std::uint32_t> control, lasso, portfolio, infeasible;
    /** Session slots per class (indices into the opened sessions). */
    std::vector<std::uint32_t> realtimeSessions, interactiveSessions,
        batchSessions, infeasibleSessions;
    std::uint32_t sessionCount = 0;
};

/** The fixed pool (structures do not depend on the seed, so neither
 *  does fleet placement; the seed drives the schedule and values). */
MixedPool mixedPool();

/** One scheduled request of the open loop. */
struct Arrival
{
    double due = 0.0;  ///< seconds after the segment start
    rsqp::AdmissionClass cls = rsqp::AdmissionClass::Interactive;
    std::uint32_t session = 0;    ///< session slot
    std::uint32_t structure = 0;  ///< structure id in the pool
    std::uint64_t variant = 0;    ///< value variant of the structure
    Expect expect = Expect::Solved;
};

/** Arrival-rate shape at scale 1 (requests per second per class). */
struct MixedRates
{
    double realtimeHz = 5.0;      ///< per controller
    double sweepsPerSecond = 1.0; ///< Interactive sweeps
    std::uint32_t sweepLength = 6;
    double burstsPerSecond = 1.0 / 3.0; ///< Batch bursts
    std::uint32_t burstLength = 72;     ///< past the 64-deep queue
    double infeasiblePerSecond = 0.5;
};

/**
 * Open-loop schedule of one rate segment: every class's arrivals at
 * `scale` times the base rates over [0, duration), sorted by due time.
 * `segment` keys the draws so segments of one run differ.
 */
std::vector<Arrival> mixedSchedule(std::uint64_t seed, std::uint64_t segment,
                                   double scale, double duration,
                                   const MixedPool& pool,
                                   const MixedRates& rates);

/** The request an arrival carries (structure + value variant). */
rsqp::QpProblem materialize(const MixedPool& pool, const Arrival& arrival,
                            std::uint64_t seed);

// ---------------------------------------------------------------------
// large-host

struct LargeProblem
{
    std::string name;
    rsqp::QpProblem qp;
};

/** The large-host set: the largest lasso and eqqp instances of the
 *  reduced (three sizes per domain, `--quick`) suite — lasso_02 is
 *  n = m = 14000 with nnz 1.1M in short sparse rows, eqqp_02 is
 *  n = 2500 with nnz 0.9M in near-dense rows. The larger huber, svm,
 *  portfolio and control instances take 2-34 s per solve at one
 *  thread, too long for a run's window. They are
 *  the suite's exact instances; the seed orders the solves of a pass
 *  (largeHostOrder). */
std::vector<LargeProblem> largeHostProblems();

/** Solve order of pass `pass`: (problem index, threads-first flag)
 *  pairs, a seeded rotation of the problems with a seeded choice of
 *  which thread count runs first. */
std::vector<std::pair<std::size_t, bool>>
largeHostOrder(std::uint64_t seed, std::uint64_t pass, std::size_t count);

} // namespace perfbench

#endif // PERFBENCH_STREAMS_HPP
