// E21 — overload protection: goodput and tail flow time vs offered load,
// per admission-control policy.
//
// The paper's guarantees assume rho < 1 at the root cut; this experiment
// measures what sustained rho >= 1 costs and what admission control buys
// back. For every offered load in the grid and every shedding policy
// (none, bounded-queue, largest-first, deadline), repetitions of a
// bounded-Pareto workload are run at unit speeds and the cell reports
// goodput (completed jobs / makespan), the p99 flow time among completed
// jobs, and the shed/reject count. Expected shape: without shedding,
// goodput collapses past rho = 1 (the backlog grows linearly, so the
// makespan — and every tail percentile — diverges); largest-first degrades
// gracefully, holding goodput roughly flat by spending the overload on the
// biggest jobs (the Lemma-2 choice: shedding the largest p_j frees the most
// backlog per unit of SJF priority mass disturbed).
//
// Every repetition's seed is split_seed(seed, fixed grid index), so the
// table is byte-identical run to run.
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>

#include "treesched/treesched.hpp"

using namespace treesched;
using util::json_num;

namespace {

std::vector<double> parse_loads(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& part : util::split(csv, ','))
    if (!part.empty()) out.push_back(std::stod(part));
  if (out.empty()) throw std::invalid_argument("--loads is empty");
  return out;
}

Tree find_tree(const std::string& name) {
  for (const auto& nt : experiments::standard_trees())
    if (nt.name == name) return nt.tree;
  throw std::invalid_argument("unknown tree '" + name + "'");
}

struct Cell {
  double rho = 0.0;
  std::string policy;
  double goodput = 0.0;   ///< NaN-excluding mean over repetitions
  double p99 = 0.0;       ///< NaN-excluding mean over repetitions
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t reps = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_overload_degradation",
                "Goodput and p99 flow vs offered load per shed policy (E21).");
  auto& loads = cli.add_string("loads", "0.5,0.9,1.0,1.5,4.0",
                               "comma-separated offered-load grid");
  auto& policies = cli.add_string(
      "policies", "none,bounded-queue,largest-first,deadline",
      "comma-separated admission policies");
  auto& tree_name = cli.add_string("tree", "star-4x2",
                                   "standard_trees topology name");
  auto& eps = cli.add_double("eps", 0.5, "size-class rounding epsilon");
  auto& jobs = cli.add_int("jobs", 300, "jobs per repetition");
  auto& reps = cli.add_int("reps", 5, "repetitions per cell");
  auto& queue_cap = cli.add_double(
      "queue-cap", 100.0, "root-cut volume cap (bounded-queue/largest-first)");
  auto& slack = cli.add_double("deadline-slack", 6.0,
                               "deadline cells admit iff F <= slack * p_j");
  auto& seed = cli.add_int("seed", 1, "base seed");
  auto& json_path = cli.add_string("json", "", "machine-readable results file");
  cli.parse(argc, argv);

  std::cout <<
      "E21 — overload degradation: goodput / p99 flow vs offered load\n"
      "goodput = completed jobs / makespan, over completed jobs only.\n"
      "Expected shape: 'none' collapses past rho=1 (diverging backlog);\n"
      "largest-first sheds the biggest jobs (Lemma 2) and degrades\n"
      "gracefully; bounded-queue and deadline sit in between.\n\n";

  const Tree tree = find_tree(tree_name);
  const auto tree_ptr = std::make_shared<const Tree>(tree);
  const std::vector<double> load_grid = parse_loads(loads);
  std::vector<std::string> policy_grid;
  for (const std::string& p : util::split(policies, ','))
    if (!p.empty()) policy_grid.push_back(p);

  std::vector<Cell> cells;
  std::uint64_t index = 0;
  for (const double rho : load_grid) {
    for (const std::string& pname : policy_grid) {
      Cell cell;
      cell.rho = rho;
      cell.policy = pname;
      double goodput_sum = 0.0, p99_sum = 0.0;
      std::size_t goodput_n = 0, p99_n = 0;
      for (int rep = 0; rep < static_cast<int>(reps); ++rep, ++index) {
        util::Rng rng(util::split_seed(static_cast<std::uint64_t>(seed),
                                       index));
        workload::WorkloadSpec wspec;
        wspec.jobs = static_cast<int>(jobs);
        wspec.load = rho;
        wspec.sizes.dist = workload::SizeDistribution::kBoundedPareto;
        wspec.sizes.class_eps = eps;
        const Instance inst = workload::generate(rng, tree_ptr, wspec);

        sim::EngineConfig cfg;
        cfg.shed.policy = overload::parse_shed_policy(pname);
        cfg.shed.queue_cap = queue_cap;
        cfg.shed.deadline_slack = slack;
        overload::validate_shed_config(cfg.shed);

        sim::Engine engine(inst, SpeedProfile::uniform(inst.tree(), 1.0),
                           cfg);
        std::optional<overload::AdmissionController> admission;
        if (cfg.shed.enabled()) {
          admission.emplace(cfg.shed, eps);
          engine.set_admission(&*admission);
        }
        algo::PaperGreedyPolicy policy(eps);
        engine.run(policy);

        const sim::Metrics& m = engine.metrics();
        if (std::isfinite(m.goodput())) {
          goodput_sum += m.goodput();
          ++goodput_n;
        }
        const double p99 = m.flow_percentile(0.99);
        if (std::isfinite(p99)) {
          p99_sum += p99;
          ++p99_n;
        }
        cell.completed += m.completed_count();
        cell.shed += m.shed_count() + m.rejected_count();
        ++cell.reps;
      }
      cell.goodput = goodput_n > 0
                         ? goodput_sum / static_cast<double>(goodput_n)
                         : std::nan("");
      cell.p99 = p99_n > 0 ? p99_sum / static_cast<double>(p99_n)
                           : std::nan("");
      cells.push_back(cell);
    }
  }

  util::Table table({"rho", "policy", "goodput", "p99 flow", "completed",
                     "shed", "reps"});
  for (const Cell& c : cells)
    table.add_row({util::Table::num(c.rho), c.policy,
                   std::isfinite(c.goodput) ? util::Table::num(c.goodput)
                                            : "-",
                   std::isfinite(c.p99) ? util::Table::num(c.p99) : "-",
                   std::to_string(c.completed), std::to_string(c.shed),
                   std::to_string(c.reps)});
  std::cout << table.str() << '\n';

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n  \"experiment\": \"overload_degradation\",\n"
       << "  \"tree\": \"" << tree_name << "\",\n"
       << "  \"jobs\": " << static_cast<int>(jobs) << ",\n"
       << "  \"queue_cap\": " << json_num(queue_cap) << ",\n"
       << "  \"deadline_slack\": " << json_num(slack) << ",\n"
       << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      os << "    {\"rho\": " << json_num(c.rho) << ", \"policy\": \""
         << c.policy << "\", \"goodput\": " << json_num(c.goodput)
         << ", \"p99\": " << json_num(c.p99)
         << ", \"completed\": " << c.completed << ", \"shed\": " << c.shed
         << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    util::write_file_atomic(json_path, os.str());
    std::cout << "json               : " << json_path << '\n';
  }
  return 0;
}
