// The scenario driver's entry point. CMakeLists.txt links it twice: into
// asl_figures with every scenario but the allocation audit, and into
// kv_alloc_audit with the audit alone.
#include "harness/scenario.h"

int main(int argc, char** argv) {
  return asl::bench::scenario_main(argc, argv);
}
