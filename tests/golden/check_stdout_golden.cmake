# Golden pin of a program's standard output: runs EXE with the optional
# ARGS list in OUT_DIR and compares what it prints byte-for-byte with
# GOLDEN. Used for the deterministic figure benches: bench_fig5_routing_reloc
# and bench_fig6_path_delay, whose tables depend on every router tie-break,
# bench_fig4_relocation_time in smoke mode, whose table depends on the
# logic simulator's event order, bench_fig1_scheduling and
# bench_defrag_policies, whose tables depend on every placement and
# defrag-planner tie-break, and bench_health_sweep, whose table depends on
# the fleet's fault injection, self-test sweep and quarantine, and for
# relogic-cli's single-device path (a function move, then a roving
# self-test rotation whose engine relocates the live circuits).
#
#   cmake -DEXE=<program> [-DARGS=<arg;arg;...>] -DGOLDEN=<file>
#         -DOUT_DIR=<scratch dir> -P check_stdout_golden.cmake
#
# To re-pin after an intended behaviour change, run the program and copy
# its standard output over the golden.
foreach(var EXE GOLDEN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

get_filename_component(name ${GOLDEN} NAME)
set(got ${OUT_DIR}/${name})
file(MAKE_DIRECTORY ${OUT_DIR})
file(REMOVE ${got})

execute_process(
  COMMAND ${EXE} ${ARGS}
  WORKING_DIRECTORY ${OUT_DIR}
  OUTPUT_FILE ${got}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${got} differs from golden ${GOLDEN}")
endif()
message(STATUS "stdout matches ${GOLDEN}")
