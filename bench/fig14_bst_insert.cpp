// Reproduces paper Figure 14: acceleration ratio when entering multiple
// data items into a binary tree, versus the number of entered elements, for
// initial tree sizes Ni = 8, 32, 128, 512, 2048.
//
// Paper shape: acceleration is below 1 for very small batches (vector
// startup dominates and an empty/small tree serializes on root conflicts),
// rises with the batch size, and is larger for larger initial trees (deeper
// descent amortizes the per-pass overhead and spreads the keys across more
// slots). The paper's conclusion: "the average acceleration ratio is more
// than 1, though it is not a factor of ten".
#include <iostream>
#include <vector>

#include "bench_harness/experiments.h"
#include "bench_harness/report.h"
#include "support/require.h"
#include "support/table_printer.h"

int main() {
  using namespace folvec;
  bench::BenchReport report("fig14_bst_insert");
  report.config("initial_sizes", JsonArray{8, 32, 128, 512, 2048});
  report.config("batch_sizes", JsonArray{10, 50, 100, 200, 300, 400, 500});
  report.config("seeds", 3);
  const vm::CostParams params = vm::CostParams::s810_like();
  const std::size_t initial_sizes[] = {8, 32, 128, 512, 2048};
  const std::size_t batch_sizes[] = {10, 50, 100, 200, 300, 400, 500};

  std::vector<std::string> headers{"entered"};
  for (std::size_t ni : initial_sizes) {
    headers.push_back("Ni=" + std::to_string(ni));
  }
  TablePrinter table(headers);

  double largest_tree_max_accel = 0;
  double smallest_tree_max_accel = 0;
  // GCC 12 falsely flags the never-engaged string alternative of the Cell
  // variant as maybe-uninitialized when the push_backs below are inlined
  // (both of them under -fsanitize=address, the second one without).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
  for (std::size_t n : batch_sizes) {
    std::vector<Cell> cells;
    cells.reserve(1 + std::size(initial_sizes));
    cells.push_back(Cell(static_cast<long long>(n)));
    for (std::size_t ni : initial_sizes) {
      // Average over three seeds; the paper notes its single-trial points
      // are "not very reliable", so we smooth a little.
      double accel_sum = 0;
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        const bench::RunResult r = bench::run_bst_insert(ni, n, seed, params);
        accel_sum += r.acceleration();
      }
      const double accel = accel_sum / 3.0;
      cells.push_back(Cell(accel, 2));
      if (ni == 2048) {
        largest_tree_max_accel = std::max(largest_tree_max_accel, accel);
      }
      if (ni == 8) {
        smallest_tree_max_accel = std::max(smallest_tree_max_accel, accel);
      }
    }
    table.add_row(std::move(cells));
  }
#pragma GCC diagnostic pop

  table.print(std::cout,
              "Figure 14: acceleration ratio when entering multiple data "
              "items into a binary tree (modeled S-810)");
  report.add_table(
      "Figure 14: acceleration ratio when entering multiple data items into "
      "a binary tree (modeled S-810)",
      table);
  report.note("max_accel_ni_2048", largest_tree_max_accel);
  report.note("max_accel_ni_8", smallest_tree_max_accel);
  std::cout << "\npaper shape: ratios rise with batch size and initial tree "
               "size; >1 once both are non-trivial, well below 10\n";
  FOLVEC_CHECK(largest_tree_max_accel > 1.0,
               "Ni=2048 must exceed acceleration 1 at large batches");
  FOLVEC_CHECK(largest_tree_max_accel > smallest_tree_max_accel,
               "larger initial trees must accelerate more (Figure 14 shape)");
  FOLVEC_CHECK(largest_tree_max_accel < 10.0,
               "BST insertion is not a factor-of-ten win (paper Sec 4.3)");
  return 0;
}
