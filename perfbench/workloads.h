// The benchmark's workloads. Each runs set-up several times, measures for
// args.seconds, verifies every output, and returns the process exit code
// after printing the result line (see harness.h).
#pragma once

#include "harness.h"

namespace perfbench {

/// `checkpoint`: a multi-variable checkpoint written, restart-read in full,
/// then probed with random range reads through a decoded-block cache, all
/// on one thread.
int RunCheckpoint(const Args& args);

/// `daemon_hot`: closed-loop clients against an in-process UDS daemon with
/// the daemon's default service options, over a warmed hot set.
int RunDaemonHot(const Args& args);

}  // namespace perfbench
