// pulpc_perf: one benchmark run. See perfbench/README.md.
#include "harness.hpp"

namespace {

#ifdef NDEBUG
constexpr bool kAssertionsOn = false;
#else
constexpr bool kAssertionsOn = true;
#endif

}  // namespace

int main(int argc, char** argv) {
  return perfbench::run_main(argc, argv, kAssertionsOn);
}
