// The Performance Evaluating Virtual Parallel Machine.
//
// Executes a PEVPM model as interleaved sweep and match phases, per the
// paper:
//
//   sweep — simulate every runnable virtual process forward until it
//           reaches a decision point (a receive whose message's arrival
//           time is not yet known) or terminates. Sends executed during the
//           sweep are logged on the contention scoreboard.
//   match — assign an arrival time to every message in transit by sampling
//           its delivery-time distribution, parameterised by message size
//           and the scoreboard population (contention level); then deliver
//           messages to their receives, unblocking processes.
//
// Evaluation alternates sweep/match until every process terminates. If a
// full round makes no progress, the model has deadlocked; the VM reports
// which processes are blocked at which directives. The VM also attributes
// per-directive performance loss (time spent blocked at each receive),
// giving the paper's "location and extent of performance loss" analysis.
//
// The Vm does not walk the directive tree. It runs the model's compiled
// Program (model.h): a process is a program counter plus a stack of the
// loops it is inside, and `exec` runs it in one loop around a switch over
// the opcode. The program is compiled once per model and shared by every
// Vm of it, so a Vm holds only per-run state: the processes, their operand
// cache and the scoreboard.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/sampler.h"
#include "core/scoreboard.h"

namespace pevpm {

/// Per-process outcome breakdown.
struct ProcessReport {
  double finish = 0.0;          ///< virtual clock at termination (seconds)
  double compute = 0.0;         ///< time inside Serial directives
  double send_overhead = 0.0;   ///< local cost of send operations
  double blocked = 0.0;         ///< time waiting at receives
  /// Blocked time per receive directive id — the loss-attribution map.
  std::map<int, double> blocked_by_directive;
};

struct SimulationResult {
  double makespan = 0.0;        ///< max finish over processes
  std::vector<ProcessReport> processes;
  bool deadlocked = false;
  std::vector<int> deadlocked_processes;
  std::vector<int> deadlocked_directives;  ///< parallel to the above
  std::uint64_t messages = 0;
  std::uint64_t sweep_phases = 0;
  std::uint64_t match_phases = 0;
  /// Hashed (src, dst) stream lookups (`Scoreboard::stream_of` calls).
  /// Operands the model caches resolve their stream once per process, so
  /// a model whose peers are all cached makes a fixed number of lookups
  /// however many messages it sends.
  std::uint64_t stream_lookups = 0;

  /// Largest per-directive blocked-time contributors, most costly first.
  [[nodiscard]] std::vector<std::pair<int, double>> top_losses(
      std::size_t count = 5) const;
};

class Vm {
 public:
  /// `overrides` extend/override the model's parameter bindings. Throws
  /// std::logic_error when `model.program` was not compiled from
  /// `model.body`.
  Vm(const Model& model, int numprocs, const Bindings& overrides,
     DeliverySampler& sampler);

  /// Runs to completion (or deadlock) and returns the result.
  [[nodiscard]] SimulationResult run();

 private:
  /// The state of one loop a process is inside.
  struct Frame {
    long remaining = 0;  ///< iterations left, this one included
    long iteration = 0;  ///< the induction variable's value
  };

  struct Claim {
    MessageRef message = nullptr;  ///< null until a sender catches up
    /// The src->receiver stream, resolved when the receive is posted.
    std::uint32_t stream = Scoreboard::kNoStream;
    bool pending = true;
    bool active = false;  ///< a handle's outstanding op (Wait may name it)
  };

  /// One operand cache entry: the operand's value once evaluated and, for
  /// a message's peer, the scoreboard stream it names (sends go from the
  /// process to the peer, receives the other way; each cache index belongs
  /// to one operand of one directive, so the direction is fixed).
  struct CachedOperand {
    double value = 0.0;
    bool known = false;
    std::uint32_t stream = Scoreboard::kNoStream;
  };
  static_assert(sizeof(CachedOperand) == 16,
                "the stream index lives in the entry's padding");

  struct Process {
    int rank = -1;
    double clock = 0.0;
    Env env;                 ///< indexed by Model::variables slot
    std::uint32_t pc = 0;    ///< next (or blocked) instruction
    std::vector<Frame> loops;  ///< innermost last
    bool finished = false;

    // Blocking state.
    bool blocked = false;
    int blocked_directive = 0;
    double blocked_since = 0.0;
    Claim wanted;                 ///< the receive being waited on
    std::vector<Claim> handles;   ///< indexed by Model::handles slot

    // Collective synchronisation state.
    bool at_collective = false;   ///< blocked at a collective directive
    long coll_seq = 0;            ///< collectives completed so far
    bool coll_ready = false;      ///< resolution assigned an exit time
    double coll_exit = 0.0;
    net::Bytes coll_bytes{};

    ProcessReport report;
  };

  /// The byte count message `in`'s size operand evaluates to at `proc`.
  [[nodiscard]] net::Bytes message_bytes(const Process& proc,
                                         const Instruction& in);
  /// Runs `proc` until it blocks or finishes.
  void sweep(Process& proc);
  /// Executes `proc`'s instructions from its `pc` on. Returns false when
  /// the process blocks, leaving `pc` on the directive it waits at (the
  /// next call retries it), and true when the program ends.
  bool exec(Process& proc);
  /// Attempts to satisfy a claim (receive); blocks the process otherwise.
  bool try_receive(Process& proc, Claim& claim, int directive);
  void match();
  /// Releases a collective once every process has arrived at it.
  void resolve_collectives();
  [[nodiscard]] SimulationResult collect() const;
  /// The value of operand `expr` at `proc`: evaluated on first use and
  /// read from the process's operand cache after that, or evaluated every
  /// time when `cache` is -1. A throwing evaluation caches nothing.
  [[nodiscard]] double eval(const Process& proc, const Expr& expr,
                            int cache);
  [[nodiscard]] long eval_int(const Process& proc, const Expr& expr,
                              int cache, const char* what);
  /// An operand naming a rank: an integer in [0, numprocs).
  [[nodiscard]] int eval_rank(const Process& proc, const Expr& expr,
                              int cache, const char* what);
  /// Entry `cache` (>= 0) of `proc`'s operand cache.
  [[nodiscard]] CachedOperand& cached(const Process& proc, int cache);
  /// The src->dst stream of a message whose peer is operand `cache` of
  /// `proc`: looked up once and kept in the operand cache, or looked up
  /// every time when `cache` is -1.
  [[nodiscard]] std::uint32_t stream_for(const Process& proc, int cache,
                                         int src, int dst);
  /// The handle claim an Isend/Irecv is about to (re)use; throws if it
  /// still holds a pending receive, whose message would be orphaned.
  [[nodiscard]] Claim& reuse_handle(Process& proc,
                                    const MessageNode& msg) const;

  const Model& model_;
  int numprocs_;
  DeliverySampler& sampler_;
  Scoreboard scoreboard_;
  std::vector<Process> processes_;
  /// Program::cached_operands entries per process, process after process.
  std::vector<CachedOperand> operand_cache_;
  std::vector<MessageRef> unassigned_;  ///< match-phase buffer, reused
  std::uint64_t sweeps_ = 0;
  std::uint64_t matches_ = 0;
  /// Instructions completed; the progress detector. A jump or loop step
  /// only runs after a directive completed in the same sweep, so a round
  /// that completes no directive leaves it unchanged.
  std::uint64_t executed_ = 0;
};

/// Convenience: one full evaluation.
[[nodiscard]] SimulationResult simulate(const Model& model, int numprocs,
                                        const Bindings& overrides,
                                        DeliverySampler& sampler);

}  // namespace pevpm
