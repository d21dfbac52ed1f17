# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains ONLY the experiment binaries: `for b in build/bench/*`
# is the documented way to regenerate every experiment.
#
# Every bench except N1 (timed on the host) is deterministic, so each one is
# also a ctest labelled `golden`: its --json must match bench/golden/NAME.json
# byte for byte. Each runs in its own working directory. A change that alters
# a result on purpose regenerates the file with
# `build/bench/NAME --json bench/golden/NAME.json` and says why in CHANGES.md.
function(yh_bench name)
  cmake_parse_arguments(PARSE_ARGV 1 YH_BENCH "NO_GOLDEN" "" "")
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    yh_serve yh_adapt yh_diff yh_core yh_faultinject yh_runtime yh_instrument
    yh_analysis yh_profile yh_profiler yh_pmu yh_obs yh_sim yh_workloads yh_coro
    yh_isa yh_common benchmark::benchmark Threads::Threads)
  if(NOT YH_BENCH_NO_GOLDEN)
    set(workdir ${CMAKE_BINARY_DIR}/golden/${name})
    file(MAKE_DIRECTORY ${workdir})
    add_test(NAME golden.${name}
      COMMAND ${CMAKE_COMMAND} -DCOMMAND=$<TARGET_FILE:${name}>
              "-DARGS=--json out.json" -DOUTPUT=out.json
              -DGOLDEN=${CMAKE_SOURCE_DIR}/bench/golden/${name}.json
              -P ${CMAKE_SOURCE_DIR}/cmake/check_golden.cmake
      WORKING_DIRECTORY ${workdir})
    set_tests_properties(golden.${name} PROPERTIES LABELS golden)
  endif()
endfunction()

yh_bench(bench_fig1_spectrum)
yh_bench(bench_c1_switch_cost)
yh_bench(bench_c2_stall_fraction)
yh_bench(bench_c3_primary)
yh_bench(bench_c4_smt_vs_coro)
yh_bench(bench_c5_asymmetric)
yh_bench(bench_c6_ablation)
yh_bench(bench_c7_policy_sweep)
yh_bench(bench_c8_interval_sweep)
yh_bench(bench_c9_hw_visibility)
yh_bench(bench_c10_sampling)
yh_bench(bench_n1_native_interleave NO_GOLDEN)
yh_bench(bench_c11_inline_level)
yh_bench(bench_r1_fault_matrix)
yh_bench(bench_r2_serving_faults)
yh_bench(bench_a1_adaptation)
yh_bench(bench_a2_sharded)
yh_bench(bench_o1_observability)
yh_bench(bench_s1_serving)
yh_bench(bench_o2_attribution)
yh_bench(bench_o3_spans)
yh_bench(bench_o4_diagnosis)
yh_bench(bench_q1_tenants)
