#pragma once

// Readings of the server process from /proc/<pid>: CPU time, peak resident
// set, and per-thread context switches and run-queue delay. Request rates
// are deliberately not derived here: closed-loop rates do not repeat on a
// shared VM, CPU time and counts do.

#include <dirent.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace sessbench {

struct ProcSnapshot {
  double cpuMs = 0.;              ///< user + system, all threads
  double voluntarySwitches = 0.;  ///< summed over live threads
  double runDelayMs = 0.;         ///< schedstat wait time, live threads
};

inline std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline ProcSnapshot procSnapshot(pid_t pid) {
  ProcSnapshot s;
  const std::string base = "/proc/" + std::to_string(pid);
  {
    const std::string stat = readFile(base + "/stat");
    const auto close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(stat.substr(close + 2));
      std::string f;
      // fields after the command name start at field 3 (state); utime and
      // stime are fields 14 and 15
      double utime = 0.;
      double stime = 0.;
      for (int k = 3; k <= 15 && (fields >> f); ++k) {
        if (k == 14) {
          utime = std::atof(f.c_str());
        } else if (k == 15) {
          stime = std::atof(f.c_str());
        }
      }
      s.cpuMs = (utime + stime) * 1000. /
                static_cast<double>(sysconf(_SC_CLK_TCK));
    }
  }
  DIR* dir = opendir((base + "/task").c_str());
  if (dir == nullptr) {
    return s;
  }
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') {
      continue;
    }
    const std::string task = base + "/task/" + e->d_name;
    std::istringstream status(readFile(task + "/status"));
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        s.voluntarySwitches += std::atof(line.c_str() + 24);
      }
    }
    std::istringstream sched(readFile(task + "/schedstat"));
    double onCpuNs = 0.;
    double waitNs = 0.;
    if (sched >> onCpuNs >> waitNs) {
      s.runDelayMs += waitNs / 1e6;
    }
  }
  closedir(dir);
  return s;
}

/// Peak resident set (VmHWM) in MiB; 0 when unreadable.
inline double peakRssMiB(pid_t pid) {
  std::istringstream status(readFile("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.;
    }
  }
  return 0.;
}

} // namespace sessbench
