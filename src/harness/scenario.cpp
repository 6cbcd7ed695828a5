#include "harness/scenario.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace asl::bench {
namespace {

double env_time_scale() {
  const char* env = std::getenv("SIM_TIME_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

}  // namespace

ScenarioContext::ScenarioContext(std::string scenario, double time_scale,
                                 std::ostream* csv,
                                 std::map<std::string, std::string> options)
    : scenario_(std::move(scenario)),
      time_scale_(time_scale > 0 ? time_scale : 1.0),
      csv_(csv),
      options_(std::move(options)) {}

std::string ScenarioContext::option(const std::string& name) const {
  const auto it = options_.find(name);
  return it == options_.end() ? std::string() : it->second;
}

void ScenarioContext::banner(const std::string& figure,
                             const std::string& title) {
  std::cout << "\n=== " << figure << ": " << title << " ===\n";
}

void ScenarioContext::note(const std::string& text) {
  std::cout << "  # " << text << "\n";
}

void ScenarioContext::shape_check(bool ok, const std::string& what) {
  std::cout << (ok ? "  [shape PASS] " : "  [shape FAIL] ") << what << "\n";
  all_ok_ = all_ok_ && ok;
}

void ScenarioContext::emit(const Table& table, const std::string& tag) {
  table.print(std::cout);
  if (csv_ != nullptr) {
    *csv_ << "# scenario=" << scenario_ << " table=" << tag << "\n";
    table.print_csv(*csv_);
  }
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry* registry = new ScenarioRegistry;
  return *registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const Scenario& s : scenarios_) out.push_back(&s);
  std::sort(out.begin(), out.end(),
            [](const Scenario* a, const Scenario* b) {
              return a->name < b->name;
            });
  return out;
}

ScenarioRegistrar::ScenarioRegistrar(std::string name, std::string title,
                                     ScenarioFn fn) {
  ScenarioRegistry::instance().add(
      Scenario{std::move(name), std::move(title), std::move(fn)});
}

int scenario_main(int argc, char** argv) {
  double time_scale = env_time_scale();
  std::string csv_path;
  bool list_only = false;
  bool run_all = false;
  std::vector<std::string> names;
  std::map<std::string, std::string> options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--all") {
      run_all = true;
    } else if (arg.rfind("--time-scale=", 0) == 0) {
      const double v = std::atof(value_of("--time-scale=").c_str());
      if (v > 0) time_scale = v;
    } else if (arg.rfind("--csv=", 0) == 0) {
      csv_path = value_of("--csv=");
    } else if (arg.rfind("--engine=", 0) == 0) {
      options["engine"] = value_of("--engine=");
    } else if (arg.rfind("--mix=", 0) == 0) {
      options["mix"] = value_of("--mix=");
    } else if (arg.rfind("--seed=", 0) == 0) {
      options["seed"] = value_of("--seed=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      options["trace"] = value_of("--trace=");
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      options["telemetry"] = value_of("--telemetry=");
    } else if (arg.rfind("--spans=", 0) == 0) {
      options["spans"] = value_of("--spans=");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--list] [--all] [--time-scale=F] [--csv=PATH] "
                   "[--engine=NAME] [--mix=NAME|R:W] [--seed=N] "
                   "[--trace=PATH] [--telemetry=on|off] [--spans=PATH] "
                   "[scenario...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << " (try --help)\n";
      return 2;
    } else {
      names.push_back(arg);
    }
  }

  ScenarioRegistry& registry = ScenarioRegistry::instance();
  if (run_all) {
    names.clear();
    for (const Scenario* s : registry.list()) names.push_back(s->name);
  }
  if (list_only || names.empty()) {
    for (const Scenario* s : registry.list()) {
      std::cout << s->name << "  —  " << s->title << "\n";
    }
    return list_only || !registry.list().empty() ? 0 : 1;
  }

  std::ofstream csv_file;
  std::ostream* csv = nullptr;
  if (!csv_path.empty()) {
    csv_file.open(csv_path);
    if (!csv_file) {
      std::cerr << "cannot open CSV output: " << csv_path << "\n";
      return 2;
    }
    csv = &csv_file;
  }

  bool all_ok = true;
  for (const std::string& name : names) {
    const Scenario* scenario = registry.find(name);
    if (scenario == nullptr) {
      std::cerr << "unknown scenario: " << name << " (try --list)\n";
      return 2;
    }
    ScenarioContext ctx(name, time_scale, csv, options);
    scenario->run(ctx);
    std::cout << (ctx.all_ok() ? "\nAll shape checks passed.\n"
                               : "\nSOME SHAPE CHECKS FAILED.\n");
    all_ok = all_ok && ctx.all_ok();
  }
  return all_ok ? 0 : 1;
}

}  // namespace asl::bench
