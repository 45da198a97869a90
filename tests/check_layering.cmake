# Fails when a file under src/qmap/mediator/ includes a header from
# qmap/service/, qmap/wire/ or qmap/store/. The mediator is the serial
# pipeline those layers are built on and tested against, so it must not
# depend on them. Run as: cmake -DQMAP_SRC_DIR=<repo>/src -P check_layering.cmake
file(GLOB mediator_files "${QMAP_SRC_DIR}/qmap/mediator/*")
if(NOT mediator_files)
  message(FATAL_ERROR "no files under ${QMAP_SRC_DIR}/qmap/mediator")
endif()
set(violations "")
foreach(path IN LISTS mediator_files)
  file(STRINGS "${path}" includes
       REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]qmap/(service|wire|store)/")
  foreach(line IN LISTS includes)
    string(APPEND violations "\n  ${path}: ${line}")
  endforeach()
endforeach()
if(violations)
  message(FATAL_ERROR "qmap/mediator/ includes a higher layer:${violations}")
endif()
