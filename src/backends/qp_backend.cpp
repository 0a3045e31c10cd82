#include "backends/qp_backend.hpp"

#include <utility>

#include "backends/backend_selector.hpp"
#include "backends/pdhg_solver.hpp"
#include "osqp/solver.hpp"

namespace rsqp
{

std::unique_ptr<QpBackend>
makeBackend(QpProblem problem, OsqpSettings settings)
{
    const BackendKind kind =
        settings.firstOrder.method == BackendKind::Auto
            ? chooseBackend(problem)
            : settings.firstOrder.method;
    if (kind == BackendKind::Pdhg)
        return std::make_unique<PdhgSolver>(std::move(problem),
                                            std::move(settings));
    return std::make_unique<OsqpSolver>(std::move(problem),
                                        std::move(settings));
}

} // namespace rsqp
