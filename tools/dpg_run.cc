// dpg_run — launcher that puts an unmodified binary under dpguard and wires
// up the postmortem pipeline (the paper's "directly applied on the binaries"
// deployment, grown into an operable workflow):
//
//   dpg_run [--report-dir DIR] [--depth N] [--no-analyze] [--lib PATH] --
//           victim [args...]
//   dpg_run [--report-dir DIR] --soak [--ops N] [dpg_soak args...]
//
//   1. locates libdpg_preload.so next to this binary (../src/ in a build
//      tree, then the binary's own directory) unless --lib overrides it;
//   2. exports LD_PRELOAD, DPG_REPORT_DIR (created if missing), DPG_TRACE=1
//      and DPG_SITE_DEPTH — each only when the caller has not already set
//      it, so operators can still override any knob per-run;
//   3. fork/execs the victim and waits;
//   4. on abnormal exit (signal, or nonzero status when a new dump
//      appeared), runs dpg_report on the newest .dpgcrash so the diagnosis
//      lands in the operator's terminal, not just on disk.
//
// --soak replaces the victim with the endurance harness: dpg_run locates
// dpg_soak next to itself, arms the snapshot writer with its own
// --report-dir (unless the passthrough args carry one), and execs it with
// everything after --soak forwarded verbatim. One entry point covers both
// halves of the operator workflow — wrap a production binary, or soak the
// guard engine itself — and the crash dumps land in the same report dir
// either way.
//
// Exit status mirrors the victim: its exit code, or 128+signal when it died
// on one — dpg_run is transparent to scripts and CI. Under --soak the status
// is dpg_soak's: 0 endurance gate passed, 1 usage error, 2 gate failed
// (monotonic drift on a gated series, or no demote/recover cycle while fault
// injection was on), 3 internal error.
#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

std::string self_dir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  char* slash = std::strrchr(buf, '/');
  if (slash == nullptr) return ".";
  *slash = '\0';
  return buf;
}

bool file_exists(const std::string& p) {
  struct stat st{};
  return stat(p.c_str(), &st) == 0;
}

std::string find_preload(const std::string& dir) {
  // Build tree first (tools/ and src/ are sibling output dirs), then a flat
  // install layout where everything sits next to dpg_run.
  const std::string candidates[] = {
      dir + "/../src/libdpg_preload.so",
      dir + "/libdpg_preload.so",
  };
  for (const std::string& c : candidates) {
    if (file_exists(c)) return c;
  }
  return "";
}

void setenv_default(const char* name, const char* value) {
  if (getenv(name) == nullptr) setenv(name, value, 1);
}

// Newest .dpgcrash in dir by mtime (the victim just died; its dump is the
// freshest). Empty when none exist.
std::string newest_dump(const std::string& dir) {
  DIR* dp = opendir(dir.c_str());
  if (dp == nullptr) return "";
  std::string best;
  time_t best_mtime = 0;
  while (dirent* ent = readdir(dp)) {
    const std::string name = ent->d_name;
    if (name.size() <= 9 || name.rfind(".dpgcrash") != name.size() - 9) {
      continue;
    }
    const std::string full = dir + "/" + name;
    struct stat st{};
    if (stat(full.c_str(), &st) != 0) continue;
    if (best.empty() || st.st_mtime >= best_mtime) {
      best = full;
      best_mtime = st.st_mtime;
    }
  }
  closedir(dp);
  return best;
}

int usage() {
  std::fprintf(stderr,
               "usage: dpg_run [--report-dir DIR] [--depth N] [--no-analyze] "
               "[--lib PATH] [--] victim [args...]\n"
               "       dpg_run [--report-dir DIR] --soak [--ops N] "
               "[dpg_soak args...]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_dir = "./dpg-reports";
  std::string lib;
  std::string depth = "8";
  bool analyze = true;

  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      ++i;
      break;
    }
    if (arg == "--report-dir") {
      if (i + 1 >= argc) return usage();
      report_dir = argv[++i];
    } else if (arg == "--depth") {
      if (i + 1 >= argc) return usage();
      depth = argv[++i];
    } else if (arg == "--lib") {
      if (i + 1 >= argc) return usage();
      lib = argv[++i];
    } else if (arg == "--no-analyze") {
      analyze = false;
    } else if (arg == "--soak") {
      // Endurance passthrough: everything after --soak goes to dpg_soak
      // verbatim. Arm the snapshot writer with our report dir unless the
      // forwarded args already pick one, so ladder-transition dumps land
      // where dpg_report expects them.
      const std::string soak_bin = self_dir() + "/dpg_soak";
      std::vector<char*> soak_argv;
      soak_argv.push_back(const_cast<char*>("dpg_soak"));
      bool has_report_dir = false;
      for (int j = i + 1; j < argc; ++j) {
        if (std::strcmp(argv[j], "--report-dir") == 0) has_report_dir = true;
        soak_argv.push_back(argv[j]);
      }
      if (!has_report_dir) {
        soak_argv.push_back(const_cast<char*>("--report-dir"));
        soak_argv.push_back(const_cast<char*>(report_dir.c_str()));
      }
      soak_argv.push_back(nullptr);
      mkdir(report_dir.c_str(), 0755);  // best-effort; preexisting is fine
      execv(soak_bin.c_str(), soak_argv.data());
      std::perror("dpg_run: exec dpg_soak");
      return 1;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      break;  // first non-option is the victim
    }
  }
  if (i >= argc) return usage();

  const std::string dir = self_dir();
  if (lib.empty()) lib = find_preload(dir);
  if (lib.empty() || !file_exists(lib)) {
    std::fprintf(stderr,
                 "dpg_run: cannot find libdpg_preload.so (searched %s/../src "
                 "and %s; use --lib)\n",
                 dir.c_str(), dir.c_str());
    return 1;
  }

  mkdir(report_dir.c_str(), 0755);  // best-effort; preexisting is fine

  setenv_default("LD_PRELOAD", lib.c_str());
  setenv_default("DPG_REPORT_DIR", report_dir.c_str());
  setenv_default("DPG_SITE_DEPTH", depth.c_str());
  setenv_default("DPG_TRACE", "1");

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("dpg_run: fork");
    return 1;
  }
  if (pid == 0) {
    execvp(argv[i], &argv[i]);
    std::perror("dpg_run: exec");
    _exit(127);
  }

  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      std::perror("dpg_run: waitpid");
      return 1;
    }
  }

  int code = 0;
  bool crashed = false;
  if (WIFSIGNALED(status)) {
    code = 128 + WTERMSIG(status);
    crashed = true;
    std::fprintf(stderr, "dpg_run: victim killed by signal %d\n",
                 WTERMSIG(status));
  } else if (WIFEXITED(status)) {
    code = WEXITSTATUS(status);
    crashed = code != 0;
  }

  if (crashed && analyze) {
    const std::string dump = newest_dump(report_dir);
    if (!dump.empty()) {
      std::fprintf(stderr, "dpg_run: analyzing %s\n", dump.c_str());
      const std::string report_bin = dir + "/dpg_report";
      const pid_t rp = fork();
      if (rp == 0) {
        execl(report_bin.c_str(), "dpg_report", dump.c_str(),
              static_cast<char*>(nullptr));
        // Not next to us (custom install): try PATH before giving up.
        execlp("dpg_report", "dpg_report", dump.c_str(),
               static_cast<char*>(nullptr));
        _exit(127);
      }
      if (rp > 0) {
        int rs = 0;
        while (waitpid(rp, &rs, 0) < 0 && errno == EINTR) {
        }
      }
    } else {
      std::fprintf(stderr, "dpg_run: no crash dump in %s\n",
                   report_dir.c_str());
    }
  }
  return code;
}
