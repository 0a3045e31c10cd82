#include "streams.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "linalg/vector_ops.hpp"

namespace perfbench
{

using rsqp::AdmissionClass;
using rsqp::Index;
using rsqp::QpProblem;

namespace
{

constexpr double kTwoPi = 6.283185307179586;

template <typename T>
void
appendBytes(std::string& out, const T& value)
{
    char buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof(T));
    out.append(buf, sizeof(T));
}

template <typename T>
void
appendArray(std::string& out, const std::vector<T>& values)
{
    appendBytes(out, static_cast<std::uint64_t>(values.size()));
    for (const T& v : values)
        appendBytes(out, v);
}

void
appendCsc(std::string& out, const rsqp::CscMatrix& m)
{
    appendBytes(out, m.rows());
    appendBytes(out, m.cols());
    appendArray(out, m.colPtr());
    appendArray(out, m.rowIdx());
    appendArray(out, m.values());
}

/** Control QP of the generator with state size nx (see mpcStep). The
 *  measured state repeats every `statePeriod` steps and the reference
 *  every `referencePeriod`. */
void
applyControlStep(QpProblem& qp, Index nx, std::uint64_t key,
                 std::uint64_t k, double statePeriod,
                 double referencePeriod)
{
    // Stage-0 dynamics rows: x_1 - Bd u_0 = Ad x0 (l = u). A new
    // measured state is a new right-hand side; |rhs| <= 0.9 keeps every
    // step feasible under the +-4 state and +-0.5 input boxes. The
    // trajectory shapes (phases) are fixed and repeat every
    // referencePeriod steps (a multiple of statePeriod); the key picks
    // where on them a stream starts and the measurement noise. A window
    // of whole periods then sees the same mix of easy and
    // input-saturated steps (so the same iteration counts) for every
    // seed, which seeded phases or incommensurate periods do not give.
    const double t = static_cast<double>(k) +
        std::floor(unitDraw(key, 3, 0) * referencePeriod);
    for (Index i = 0; i < nx; ++i) {
        const auto s = static_cast<std::size_t>(i);
        const double phase = kTwoPi * unitDraw(0x50A5E, 1, s);
        const double rhs =
            0.8 * std::sin(kTwoPi * t / statePeriod + phase) +
            0.02 * (unitDraw(key, 1000 + k, s) - 0.5);
        qp.l[s] = rhs;
        qp.u[s] = rhs;
    }
    // Tracking cost on the states (Q = I): q = -reference.
    const Index horizon = 10;
    for (Index j = 0; j < horizon * nx; ++j) {
        const auto s = static_cast<std::size_t>(j);
        const double phase = kTwoPi * unitDraw(0x50A5E, 2, s % nx);
        qp.q[s] = -0.5 * std::sin(kTwoPi * t / referencePeriod + phase);
    }
}

QpProblem
infeasibleQp(Index n)
{
    // sum(x) >= 1 and sum(x) <= -1: every row valid (l <= u), the pair
    // contradictory.
    rsqp::TripletList p(n, n);
    for (Index j = 0; j < n; ++j)
        p.add(j, j, 1.0);
    rsqp::TripletList a(2, n);
    for (Index j = 0; j < n; ++j) {
        a.add(0, j, 1.0);
        a.add(1, j, 1.0);
    }
    QpProblem qp;
    qp.pUpper = rsqp::CscMatrix::fromTriplets(p).upperTriangular();
    qp.q = rsqp::constantVector(n, 0.0);
    qp.a = rsqp::CscMatrix::fromTriplets(a);
    qp.l = {1.0, -rsqp::kInf};
    qp.u = {rsqp::kInf, -1.0};
    qp.name = "infeasible";
    return qp;
}

/**
 * Arrival times of rate `rate` over [0, duration): one per period, at a
 * seeded point between 5% and 95% of it. A window that is a whole
 * number of periods therefore always holds the same count, with room
 * for a short burst to finish inside it (a Poisson stream would put 0,
 * 1 or 3 bursts into one window by chance, and the tail with them).
 */
std::vector<double>
periodicTimes(std::uint64_t key, double rate, double duration)
{
    std::vector<double> times;
    if (rate <= 0.0)
        return times;
    const double period = 1.0 / rate;
    for (std::uint64_t i = 0;; ++i) {
        const double t = period *
            (static_cast<double>(i) + 0.05 + 0.9 * unitDraw(key, 7, i));
        if (t >= duration)
            break;
        times.push_back(t);
    }
    return times;
}

} // namespace

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
unitDraw(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    const std::uint64_t h = mix64(mix64(mix64(seed) ^ a) ^ b);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string
serializeQp(const QpProblem& qp)
{
    std::string out;
    appendCsc(out, qp.pUpper);
    appendCsc(out, qp.a);
    appendArray(out, qp.q);
    appendArray(out, qp.l);
    appendArray(out, qp.u);
    return out;
}

// ---------------------------------------------------------------------

std::vector<MpcClient>
mpcClients(std::uint64_t seed, unsigned count)
{
    static constexpr Index kSizes[] = {10, 20, 30};
    std::vector<MpcClient> clients;
    for (unsigned c = 0; c < count; ++c) {
        MpcClient client;
        client.nx = kSizes[c % 3];
        client.key = mix64(seed * 31 + c);
        // The plants are fixed (structure keys independent of the
        // seed, so fleet placement is too); the seed drives the
        // measured states and references every step carries.
        client.base = rsqp::generateProblem(rsqp::Domain::Control,
                                            client.nx, mix64(0x4D50 + c));
        clients.push_back(std::move(client));
    }
    return clients;
}

QpProblem
mpcStep(const MpcClient& client, std::uint64_t k)
{
    QpProblem qp = client.base;
    applyControlStep(qp, client.nx, client.key, k, kMpcTrajectoryPeriod,
                     kMpcTrajectoryPeriod);
    return qp;
}

// ---------------------------------------------------------------------

MixedPool
mixedPool()
{
    MixedPool pool;
    auto add = [&](QpProblem qp, Family family, Index nx = 0) {
        const auto id = static_cast<std::uint32_t>(pool.structures.size());
        pool.structures.push_back(std::move(qp));
        pool.family.push_back(family);
        pool.stateSize.push_back(nx);
        return id;
    };
    // Realtime controllers: one structure (and session) each.
    static constexpr Index kControl[] = {2, 3, 2, 3};
    for (std::size_t i = 0; i < std::size(kControl); ++i)
        pool.control.push_back(
            add(rsqp::generateProblem(rsqp::Domain::Control, kControl[i],
                                      mix64((0x100 + i))),
                Family::Control, kControl[i]));
    // Interactive and Batch pools: 32 distinct structures each. Affinity
    // spreads the 70 structures over three cores, about 23 per core,
    // more than a core's 16-entry customization-cache partition, so
    // thaw, cold and eviction routes all run.
    for (std::size_t i = 0; i < 32; ++i)
        pool.lasso.push_back(
            add(rsqp::generateProblem(rsqp::Domain::Lasso,
                                      static_cast<Index>(6 + i % 8),
                                      mix64((0x200 + i))),
                Family::Lasso));
    for (std::size_t i = 0; i < 32; ++i)
        pool.portfolio.push_back(
            add(rsqp::generateProblem(rsqp::Domain::Portfolio,
                                      static_cast<Index>(10 + i % 4),
                                      mix64((0x300 + i))),
                Family::Portfolio));
    pool.infeasible.push_back(add(infeasibleQp(2), Family::Infeasible));
    pool.infeasible.push_back(add(infeasibleQp(3), Family::Infeasible));

    std::uint32_t slot = 0;
    auto slots = [&](std::vector<std::uint32_t>& out, std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i)
            out.push_back(slot++);
    };
    slots(pool.realtimeSessions, static_cast<std::uint32_t>(std::size(kControl)));
    slots(pool.interactiveSessions, 6);
    // Sixteen batch clients: a burst is four or five requests from
    // each, so no single session's FIFO chain sets its drain time.
    slots(pool.batchSessions, 16);
    slots(pool.infeasibleSessions, 2);
    pool.sessionCount = slot;
    return pool;
}

std::vector<Arrival>
mixedSchedule(std::uint64_t seed, std::uint64_t segment, double scale,
              double duration, const MixedPool& pool,
              const MixedRates& rates)
{
    const std::uint64_t key = mix64(seed * 1000003ULL + segment);
    std::vector<Arrival> out;

    // Realtime: periodic controllers with seeded phase and +-5% jitter.
    const double period = 1.0 / (rates.realtimeHz * scale);
    for (std::size_t c = 0; c < pool.control.size(); ++c) {
        // Phase within [10%, 90%) of the period, so with the jitter
        // every step stays inside its own period.
        const double phase = period * (0.1 + 0.8 * unitDraw(key, 10, c));
        for (std::uint64_t k = 0;; ++k) {
            const double jitter =
                0.05 * period * (2.0 * unitDraw(key, 11 + c, k) - 1.0);
            const double due =
                phase + period * static_cast<double>(k) + jitter;
            if (due >= duration)
                break;
            Arrival a;
            a.due = std::max(0.0, due);
            a.cls = AdmissionClass::Realtime;
            a.session = pool.realtimeSessions[c];
            a.structure = pool.control[c];
            a.variant = segment * 1000000ULL + k;
            out.push_back(a);
        }
    }
    // Interactive: sweeps round-robin over the sessions, each a burst of
    // `sweepLength` regularization values 2 ms apart on one structure.
    const std::vector<double> sweeps = periodicTimes(
        key ^ 0x5157, rates.sweepsPerSecond * scale, duration);
    // Structures cycle through the pools in a fixed order (a stride
    // coprime to the pool size), independent of the seed: which core a
    // structure lands on decides how a burst drains, and a seeded draw
    // would move the tail from seed to seed.
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        const std::uint32_t structure =
            pool.lasso[(segment * 5 + s * 7) % pool.lasso.size()];
        for (std::uint32_t j = 0; j < rates.sweepLength; ++j) {
            Arrival a;
            a.due = sweeps[s] + 0.002 * j;
            if (a.due >= duration)
                break;
            a.cls = AdmissionClass::Interactive;
            a.session =
                pool.interactiveSessions[s % pool.interactiveSessions.size()];
            a.structure = structure;
            a.variant = (segment * 100000ULL + s) * 64 + j;
            out.push_back(a);
        }
    }
    // Batch: bursts sized past the admission queue, spread over the
    // batch sessions, one structure per session per burst.
    const std::vector<double> bursts = periodicTimes(
        key ^ 0xB075, rates.burstsPerSecond * scale, duration);
    const std::size_t sessions = pool.batchSessions.size();
    for (std::size_t b = 0; b < bursts.size(); ++b) {
        for (std::uint32_t j = 0; j < rates.burstLength; ++j) {
            const std::size_t sess = j % sessions;
            Arrival a;
            a.due = bursts[b] + 0.0001 * j;
            if (a.due >= duration)
                break;
            a.cls = AdmissionClass::Batch;
            a.session = pool.batchSessions[sess];
            a.structure = pool.portfolio[(segment * 11 + b * 5 + sess * 7) %
                                         pool.portfolio.size()];
            a.variant = (segment * 100000ULL + b) * 1024 + j;
            out.push_back(a);
        }
    }
    // Infeasible share: own sessions, Interactive class.
    const std::vector<double> bad = periodicTimes(
        key ^ 0x1AF, rates.infeasiblePerSecond * scale, duration);
    for (std::size_t i = 0; i < bad.size(); ++i) {
        Arrival a;
        a.due = bad[i];
        a.cls = AdmissionClass::Interactive;
        a.session =
            pool.infeasibleSessions[i % pool.infeasibleSessions.size()];
        a.structure = pool.infeasible[i % pool.infeasible.size()];
        a.variant = i;
        a.expect = Expect::PrimalInfeasible;
        out.push_back(a);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Arrival& a, const Arrival& b) {
                         return a.due < b.due;
                     });
    return out;
}

QpProblem
materialize(const MixedPool& pool, const Arrival& arrival,
            std::uint64_t seed)
{
    QpProblem qp = pool.structures[arrival.structure];
    const std::uint64_t key = mix64(seed ^ (arrival.structure * 7919ULL));
    switch (pool.family[arrival.structure]) {
    case Family::Control:
        applyControlStep(qp, pool.stateSize[arrival.structure], key,
                         arrival.variant, 50.0, 100.0);
        break;
    case Family::Lasso: {
        // A regularization sweep: lambda (the only non-zero costs)
        // scaled within [0.5, 1.5).
        const double f = 0.5 + unitDraw(key, 40, arrival.variant);
        for (double& v : qp.q)
            v *= f;
        break;
    }
    case Family::Portfolio: {
        for (std::size_t j = 0; j < qp.q.size(); ++j)
            qp.q[j] *= 0.85 + 0.3 * unitDraw(key, arrival.variant, j);
        break;
    }
    case Family::Infeasible:
        break;
    }
    return qp;
}

// ---------------------------------------------------------------------

std::vector<LargeProblem>
largeHostProblems()
{
    std::vector<LargeProblem> out;
    for (const rsqp::ProblemSpec& spec : rsqp::benchmarkSuite(3)) {
        if (spec.name != "lasso_02" && spec.name != "eqqp_02")
            continue;
        out.push_back({spec.name,
                       rsqp::generateProblem(spec.domain, spec.sizeParam,
                                             spec.seed)});
    }
    return out;
}

std::vector<std::pair<std::size_t, bool>>
largeHostOrder(std::uint64_t seed, std::uint64_t pass, std::size_t count)
{
    std::vector<std::pair<std::size_t, bool>> order;
    const auto rot = static_cast<std::size_t>(
        unitDraw(seed, 50, pass) * static_cast<double>(count));
    for (std::size_t i = 0; i < count; ++i)
        order.push_back({(i + rot) % count,
                         unitDraw(seed, 51 + pass, i) < 0.5});
    return order;
}

} // namespace perfbench
