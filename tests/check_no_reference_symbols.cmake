# ProductionLibs.ExportNoReferenceSymbol: fails when a production library
# defines a symbol of the test-only reference code (src/reference).  Those
# oracles and proof devices live in dpg_reference, which only tests/ and
# bench/ link; a definition in a production archive means one leaked back.
#
#   cmake -DNM=<nm> -DLIBS="<lib.a>|<lib.a>|..." -P check_no_reference_symbols.cmake
#
# The pattern is namespace-qualified: a bare `lower_bound` would also match
# std::lower_bound instantiations.
set(pattern "dpg::(solve_bruteforce|price_parent_assignment|solve_subset_exact|cut_operation|packed_lower_bound|windowed_jaccard_series|measure_dilution|trace_from_csv_legacy|reference::)")

string(REPLACE "|" ";" libs "${LIBS}")
set(leaks "")
foreach(lib IN LISTS libs)
  execute_process(
    COMMAND "${NM}" -C --defined-only "${lib}"
    OUTPUT_VARIABLE symbols
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${lib}: ${errors}")
  endif()
  string(REGEX MATCHALL "[^\n]*${pattern}[^\n]*" hits "${symbols}")
  foreach(hit IN LISTS hits)
    string(APPEND leaks "  ${lib}: ${hit}\n")
  endforeach()
endforeach()

if(NOT leaks STREQUAL "")
  message(FATAL_ERROR "production libraries define reference symbols:\n${leaks}")
endif()
list(LENGTH libs count)
message(STATUS "no reference symbol defined in ${count} production libraries")
