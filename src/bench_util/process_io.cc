#include "bench_util/process_io.h"

#include <fstream>
#include <string>

namespace kvmatch {

uint64_t ProcessBytesWritten() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

}  // namespace kvmatch
