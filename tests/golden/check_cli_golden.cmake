# Golden pin of a planner-heavy fleet run: runs relogic-cli with telemetry
# and metrics exports and compares both files byte-for-byte with the
# goldens next to this script. The run (4 devices, bursty arrivals,
# rebalancing, roving self-test with injected faults) makes many
# rearrangement moves on grids with masked CLBs, so any change to area
# search, defrag planning or their tie-breaks shows up here.
#
# The same command runs twice more, to pin the other exporters: once with
# --trace and a JSON --metrics-out, once with --metrics-format prom. Those
# outputs are 1.3-1.5 MB each, so cli_exports.sha256 pins their SHA-256
# instead of the files ("<hash>  <name>" per line, sha256sum format).
#
#   cmake -DCLI=<relogic-cli> -DOUT_DIR=<scratch dir> -P check_cli_golden.cmake
#
# To re-pin after an intended behaviour change, run the same relogic-cli
# commands, copy the telemetry and CSV files over the goldens and write the
# sha256sum of the trace, metrics JSON and Prometheus files into
# cli_exports.sha256.
foreach(var CLI OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_cli_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
set(telemetry ${OUT_DIR}/cli_fleet_planner_telemetry.json)
set(metrics ${OUT_DIR}/cli_fleet_planner_metrics.csv)
file(MAKE_DIRECTORY ${OUT_DIR})
set(trace ${OUT_DIR}/cli_fleet_planner_trace.json)
set(metrics_json ${OUT_DIR}/cli_fleet_planner_metrics.json)
set(metrics_prom ${OUT_DIR}/cli_fleet_planner_metrics.prom)
file(REMOVE ${telemetry} ${metrics} ${trace} ${metrics_json} ${metrics_prom})

set(run ${CLI} --fleet 4 --random-tasks 400 --seed 7 --workload bursty
        --rebalance 30 --selftest --fault-rate 0.02 --metrics-interval-ms 100)
foreach(exports
    "--telemetry;${telemetry};--metrics-out;${metrics};--metrics-format;csv"
    "--trace;${trace};--metrics-out;${metrics_json}"
    "--metrics-out;${metrics_prom};--metrics-format;prom")
  execute_process(
    COMMAND ${run} ${exports}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "relogic-cli ${exports} exited with ${rc}")
  endif()
endforeach()

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
file(STRINGS ${golden_dir}/cli_exports.sha256 pins)
foreach(pin ${pins})
  string(REGEX MATCH "^([0-9a-f]+)  (.+)$" ok "${pin}")
  if(NOT ok)
    message(FATAL_ERROR "malformed line in cli_exports.sha256: ${pin}")
  endif()
  set(want ${CMAKE_MATCH_1})
  set(got ${OUT_DIR}/${CMAKE_MATCH_2})
  file(SHA256 ${got} hash)
  if(NOT hash STREQUAL want)
    message(FATAL_ERROR "${got}: SHA-256 ${hash} differs from the pin ${want}")
  endif()
endforeach()
message(STATUS "telemetry, metrics, trace and Prometheus exports match the goldens")
