# Golden pin of a planner-heavy fleet run: runs relogic-cli with telemetry
# and metrics exports and compares both files byte-for-byte with the
# goldens next to this script. The run (4 devices, bursty arrivals,
# rebalancing, roving self-test with injected faults) makes many
# rearrangement moves on grids with masked CLBs, so any change to area
# search, defrag planning or their tie-breaks shows up here.
#
#   cmake -DCLI=<relogic-cli> -DOUT_DIR=<scratch dir> -P check_cli_golden.cmake
#
# To re-pin after an intended behaviour change, run the same relogic-cli
# command and copy its two output files over the goldens.
foreach(var CLI OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_cli_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
set(telemetry ${OUT_DIR}/cli_fleet_planner_telemetry.json)
set(metrics ${OUT_DIR}/cli_fleet_planner_metrics.csv)
file(MAKE_DIRECTORY ${OUT_DIR})
file(REMOVE ${telemetry} ${metrics})

execute_process(
  COMMAND ${CLI} --fleet 4 --random-tasks 400 --seed 7 --workload bursty
          --rebalance 30 --selftest --fault-rate 0.02
          --telemetry ${telemetry}
          --metrics-out ${metrics} --metrics-format csv
          --metrics-interval-ms 100
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "relogic-cli exited with ${rc}")
endif()

foreach(pair "${telemetry}|cli_fleet_planner_telemetry.json"
             "${metrics}|cli_fleet_planner_metrics.csv")
  string(REPLACE "|" ";" pair "${pair}")
  list(GET pair 0 got)
  list(GET pair 1 name)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${golden_dir}/${name}
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${got} differs from golden ${golden_dir}/${name}")
  endif()
endforeach()
message(STATUS "telemetry and metrics match the goldens")
