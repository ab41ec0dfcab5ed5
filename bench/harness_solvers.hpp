// Solver internals for the figure/table harnesses — NOT part of the public
// API.
//
// Applications include src/dpgreedy.hpp and dispatch through the registry;
// the reproduction harnesses in this directory genuinely sweep algorithm
// internals (explicit pairs, DP options, correlation structures) and the
// test-only reference code of src/reference (exhaustive solvers, proof
// devices, the paper's literal DP scan, the legacy CSV parser), so they —
// and only they — pull those headers, through this one bench-local include.
#pragma once

#include "reference/bruteforce.hpp"    // IWYU pragma: export
#include "reference/csv_legacy.hpp"    // IWYU pragma: export
#include "reference/cut_operation.hpp" // IWYU pragma: export
#include "reference/lower_bound.hpp"   // IWYU pragma: export
#include "reference/optimal_offline.hpp"  // IWYU pragma: export
#include "reference/subset_exact.hpp"  // IWYU pragma: export
#include "reference/temporal_correlation.hpp"  // IWYU pragma: export
#include "solver/baselines.hpp"        // IWYU pragma: export
#include "solver/correlation.hpp"      // IWYU pragma: export
#include "solver/dp_greedy.hpp"        // IWYU pragma: export
#include "solver/greedy.hpp"           // IWYU pragma: export
#include "solver/group_solver.hpp"     // IWYU pragma: export
#include "solver/online.hpp"           // IWYU pragma: export
#include "solver/online_dp_greedy.hpp" // IWYU pragma: export
#include "solver/optimal_offline.hpp"  // IWYU pragma: export
#include "solver/pairing.hpp"          // IWYU pragma: export
#include "solver/phase2_shard.hpp"     // IWYU pragma: export
#include "solver/workspace.hpp"        // IWYU pragma: export
