// Child processes of the benchmark: the `scoris serve` daemon and the
// `scoris worker` shard daemons a workload launches.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "suite/common.hpp"

namespace scoris::perfbench {

/// A launched program, stopped (SIGTERM, then SIGKILL after a grace
/// period) and reaped when the object goes away, so no run leaves a
/// process behind however it ends.  The child is also killed if the
/// harness dies first (PR_SET_PDEATHSIG).
class Child {
 public:
  /// Start `argv` with stdout and stderr appended to `log_path`.
  Child(const std::vector<std::string>& argv, const std::string& log_path) {
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
    if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(log_fd);
    if (pid_ < 0) throw std::runtime_error("fork failed for " + argv[0]);
  }

  ~Child() { stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  /// Peak resident set of the running child (0 once stopped).
  [[nodiscard]] double vm_hwm_mib() const {
    return pid_ > 0 ? perfbench::vm_hwm_mib(std::to_string(pid_)) : 0.0;
  }

  /// True while the child has not exited.
  [[nodiscard]] bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Wait for a program that exits by itself; its exit code, or -1 when
  /// it had to be killed after `timeout_s` or died of a signal.
  int wait_exit(double timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    int status = 0;
    while (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        stop();
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// SIGTERM (the daemons drain and exit 0), SIGKILL after 5 s; reaps.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Call `probe` until it returns true, a few hundred microseconds apart.
/// Throws when `child` exits first or `timeout_s` passes.
template <typename Probe>
void wait_until(Child& child, double timeout_s, const std::string& what,
                Probe&& probe) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!probe()) {
    if (!child.running()) throw std::runtime_error(what + " exited early");
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error(what + " did not become ready");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace scoris::perfbench
