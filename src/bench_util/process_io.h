// Per-process I/O counters for write-amplification measurements.
#ifndef KVMATCH_BENCH_UTIL_PROCESS_IO_H_
#define KVMATCH_BENCH_UTIL_PROCESS_IO_H_

#include <cstdint>

namespace kvmatch {

/// Bytes this process has passed to write(2) and friends (wchar of
/// /proc/self/io, Linux): what a store writes, whether it appends or
/// rewrites. 0 where that file is unavailable.
uint64_t ProcessBytesWritten();

}  // namespace kvmatch

#endif  // KVMATCH_BENCH_UTIL_PROCESS_IO_H_
