// adc_micro — the google-benchmark micro-benches in one binary: mapping
// tables (micro_tables.cpp), hashing (micro_hash.cpp) and the wire codec
// (micro_wire.cpp).  `adc_micro --benchmark_filter=Wire` runs one family.
#include <benchmark/benchmark.h>

BENCHMARK_MAIN();
