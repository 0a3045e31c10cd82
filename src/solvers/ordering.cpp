#include "ordering.hpp"

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <vector>

#include "common/logging.hpp"

namespace rsqp
{

namespace
{

/** Symmetrized adjacency (no self loops) from an upper-triangle pattern. */
std::vector<IndexVector>
buildAdjacency(const CscMatrix& upper)
{
    const Index n = upper.cols();
    std::vector<IndexVector> adj(static_cast<std::size_t>(n));
    for (Index c = 0; c < n; ++c) {
        for (Index p = upper.colPtr()[c]; p < upper.colPtr()[c + 1]; ++p) {
            const Index r = upper.rowIdx()[p];
            if (r == c)
                continue;
            adj[static_cast<std::size_t>(r)].push_back(c);
            adj[static_cast<std::size_t>(c)].push_back(r);
        }
    }
    for (auto& neighbors : adj) {
        std::sort(neighbors.begin(), neighbors.end());
        neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                        neighbors.end());
    }
    return adj;
}

} // namespace

IndexVector
reverseCuthillMcKee(const CscMatrix& upper)
{
    RSQP_ASSERT(upper.rows() == upper.cols(), "RCM needs a square matrix");
    const Index n = upper.cols();
    const auto adj = buildAdjacency(upper);

    std::vector<Index> degree(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i)
        degree[static_cast<std::size_t>(i)] =
            static_cast<Index>(adj[static_cast<std::size_t>(i)].size());

    std::vector<bool> visited(static_cast<std::size_t>(n), false);
    IndexVector order;
    order.reserve(static_cast<std::size_t>(n));

    // Process every connected component, starting each BFS from its
    // minimum-degree node (a cheap pseudo-peripheral heuristic).
    for (Index seed_scan = 0; seed_scan < n; ++seed_scan) {
        if (visited[static_cast<std::size_t>(seed_scan)])
            continue;
        // Find the min-degree unvisited node in this component via BFS
        // from seed_scan first.
        Index start = seed_scan;
        {
            std::queue<Index> bfs;
            std::vector<Index> component;
            std::vector<bool> seen(static_cast<std::size_t>(n), false);
            bfs.push(seed_scan);
            seen[static_cast<std::size_t>(seed_scan)] = true;
            while (!bfs.empty()) {
                const Index u = bfs.front();
                bfs.pop();
                component.push_back(u);
                for (Index v : adj[static_cast<std::size_t>(u)]) {
                    if (!seen[static_cast<std::size_t>(v)] &&
                        !visited[static_cast<std::size_t>(v)]) {
                        seen[static_cast<std::size_t>(v)] = true;
                        bfs.push(v);
                    }
                }
            }
            for (Index u : component)
                if (degree[static_cast<std::size_t>(u)] <
                    degree[static_cast<std::size_t>(start)])
                    start = u;
        }

        // Cuthill-McKee BFS with degree-sorted neighbor expansion.
        std::queue<Index> bfs;
        bfs.push(start);
        visited[static_cast<std::size_t>(start)] = true;
        IndexVector buffer;
        while (!bfs.empty()) {
            const Index u = bfs.front();
            bfs.pop();
            order.push_back(u);
            buffer.clear();
            for (Index v : adj[static_cast<std::size_t>(u)])
                if (!visited[static_cast<std::size_t>(v)])
                    buffer.push_back(v);
            std::sort(buffer.begin(), buffer.end(),
                      [&](Index a, Index b) {
                          return degree[static_cast<std::size_t>(a)] <
                              degree[static_cast<std::size_t>(b)];
                      });
            for (Index v : buffer) {
                visited[static_cast<std::size_t>(v)] = true;
                bfs.push(v);
            }
        }
    }

    std::reverse(order.begin(), order.end());
    return order;
}

Index
symmetricBandwidth(const CscMatrix& upper, const IndexVector& perm)
{
    const Index n = upper.cols();
    RSQP_ASSERT(static_cast<Index>(perm.size()) == n,
                "permutation size mismatch");
    IndexVector inv(perm.size());
    for (Index i = 0; i < n; ++i)
        inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
    Index band = 0;
    for (Index c = 0; c < n; ++c) {
        for (Index p = upper.colPtr()[c]; p < upper.colPtr()[c + 1]; ++p) {
            const Index r = upper.rowIdx()[p];
            band = std::max(band, std::abs(
                inv[static_cast<std::size_t>(r)] -
                inv[static_cast<std::size_t>(c)]));
        }
    }
    return band;
}

} // namespace rsqp
