# Golden pin of a fleet run whose three devices use different
# configuration planes: device 0 the default JTAG port at dirty-frame
# granularity, device 1 ICAP-32 at frame granularity, device 2 SelectMAP-8
# at column granularity. Its telemetry holds each device's batched and
# unbatched config counters (transactions, column writes, frame writes,
# dirty-frame skips, port time), so any change to how the transaction
# batcher merges, prices or applies ops shows up here at all three
# granularities.
#
#   cmake -DCLI=<relogic-cli> -DOUT_DIR=<scratch dir> -P check_cli_planes_golden.cmake
#
# To re-pin after an intended behaviour change, run the same relogic-cli
# command and copy its telemetry file over the golden.
foreach(var CLI OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_cli_planes_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

set(name cli_fleet_planes_telemetry.json)
set(golden ${CMAKE_CURRENT_LIST_DIR}/${name})
set(got ${OUT_DIR}/${name})
file(MAKE_DIRECTORY ${OUT_DIR})
file(REMOVE ${got})

execute_process(
  COMMAND ${CLI} --fleet 3 --random-tasks 120 --seed 7 --granularity dirty
          --device-plane 1:icap32:frame --device-plane 2:selectmap8:column
          --telemetry ${got}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "relogic-cli exited with ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${golden}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${got} differs from golden ${golden}")
endif()
message(STATUS "telemetry matches ${golden}")
