# Golden pin of the single-device tool's metrics exports: the XCV50 run of
# cli_single_device_golden (a function move, then a roving self-test
# rotation) written once per --metrics-format. The tool samples the
# configuration controller's totals at each phase boundary, so the JSON,
# CSV and Prometheus renderers of those rows are compared byte-for-byte
# with the goldens next to this script.
#
#   cmake -DCLI=<relogic-cli> -DOUT_DIR=<scratch dir> -P check_cli_metrics_golden.cmake
#
# To re-pin after an intended behaviour change, run the same relogic-cli
# command once per format and copy the three files over the goldens.
foreach(var CLI OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_cli_metrics_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})
foreach(format json csv prom)
  set(name cli_single_device_metrics.${format})
  set(golden ${CMAKE_CURRENT_LIST_DIR}/${name})
  set(got ${OUT_DIR}/${name})
  file(REMOVE ${got})

  execute_process(
    COMMAND ${CLI} --device XCV50 --load b01@2,2 --load counter8@2,12 --gated
            --move b01:10,2 --selftest --fault-rate 0.02 --seed 7
            --metrics-out ${got} --metrics-format ${format}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "relogic-cli --metrics-format ${format} exited with ${rc}")
  endif()

  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${got} ${golden}
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${got} differs from golden ${golden}")
  endif()
endforeach()
message(STATUS "single-device JSON, CSV and Prometheus metrics match the goldens")
