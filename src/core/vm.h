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
//
// One Vm runs a batch of Monte-Carlo replications in lockstep, one lane
// per seed of its sampler. A process blocks only at a receive whose
// message has no arrival time yet, and every draw is keyed by message size
// and the scoreboard's message count, never by a sampled time. So every
// replication takes the same sweeps, matches, claims and contention
// levels: that schedule (program counters, loop frames, operand cache,
// claims, blocked and collective flags, the scoreboard's FIFOs) is kept
// once per batch, and only the values are kept per lane: each process's
// clock, collective exit and report, each message's departure and
// arrival, each stream's in-order floor and each lane's random stream. No
// branch that reads a value steers the schedule; the late-receive cost and
// the loss-attribution entry are taken lane by lane. So each lane makes
// exactly the draws of its replication run alone, in the same order, and
// its result has the same bits, deadlock or model error included.
#pragma once

#include <cstdint>
#include <exception>
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

/// Most directive steps (instructions completed, loop steps and branches
/// included, summed over all processes) one run of a model may take; one
/// more is a ModelError naming the budget, so a runaway model such as
/// `loop 1000000000000000000 { serial time = 1e-9 }` ends in under a
/// second instead of never. The largest model in the tests, benches,
/// examples and perfbench takes 668 064 steps (tabc_model_cost: 1000
/// Jacobi iterations on 64 processes), and 2^26 is just over 100x that.
/// The lanes of a batch share the schedule, so a batch counts the steps of
/// one replication run alone, at any batch size or thread count.
inline constexpr std::uint64_t kMaxDirectiveSteps = std::uint64_t{1} << 26;

class Vm {
 public:
  /// Runs one replication per lane of `sampler`. `overrides`
  /// extend/override the model's parameter bindings. Throws
  /// std::logic_error when `model.program` was not compiled from
  /// `model.body`.
  Vm(const Model& model, int numprocs, const Bindings& overrides,
     DeliverySampler& sampler);

  /// Runs to completion (or deadlock) and returns each lane's result, in
  /// lane order. A model error ends the batch with the error of its
  /// lowest lane that fails, as that lane's replication alone would.
  [[nodiscard]] std::vector<SimulationResult> run();

  /// Bytes of state per process that a Vm of `model` allocates before it
  /// runs, whatever its lanes: the process record, its variable slots and
  /// handle claims, its operand cache entries and its loss-slot index.
  [[nodiscard]] static std::uint64_t process_state_bytes(
      const Model& model) noexcept;

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

  /// A process's schedule state; its values live per lane in the Vm.
  struct Process {
    int rank = -1;
    Env env;                 ///< indexed by Model::variables slot
    std::uint32_t pc = 0;    ///< next (or blocked) instruction
    std::vector<Frame> loops;  ///< innermost last
    bool finished = false;
    double compute = 0.0;    ///< time inside Serial directives (no draw)

    // Blocking state.
    bool blocked = false;
    int blocked_directive = 0;
    Claim wanted;                 ///< the receive being waited on
    std::vector<Claim> handles;   ///< indexed by Model::handles slot

    // Collective synchronisation state.
    bool at_collective = false;   ///< blocked at a collective directive
    long coll_seq = 0;            ///< collectives completed so far
    bool coll_ready = false;      ///< resolution assigned exit times
    net::Bytes coll_bytes{};
  };

  /// A process's values on one lane.
  struct LaneValues {
    double clock = 0.0;
    double coll_exit = 0.0;      ///< the exit time resolution assigned
    double send_overhead = 0.0;  ///< local cost of send operations
    double blocked = 0.0;        ///< time waiting at receives
  };
  /// `proc`'s values, lane after lane.
  [[nodiscard]] LaneValues* lanes_of(const Process& proc);
  /// `proc`'s blocked time at loss slot `slot`, lane after lane: a block
  /// of losses_, made (all zero) the first time the process reaches it.
  [[nodiscard]] double* losses_of(const Process& proc, std::uint32_t slot);
  /// Appends a zeroed block of `lanes_` values to losses_; returns its
  /// index.
  [[nodiscard]] std::uint32_t add_loss_block();
  /// Adds `idle` seconds blocked to a lane's report and, when positive, to
  /// its `loss` slot.
  static void account_blocked(LaneValues& lane, double& loss, double idle);

  /// The byte count message `in`'s size operand evaluates to at `proc`.
  [[nodiscard]] net::Bytes message_bytes(const Process& proc,
                                         const Instruction& in);
  /// Runs `proc` until it blocks or finishes.
  void sweep(Process& proc);
  /// Executes `proc`'s instructions from its `pc` on. Returns false when
  /// the process blocks, leaving `pc` on the directive it waits at (the
  /// next call retries it), and true when the program ends.
  bool exec(Process& proc);
  /// Attempts to satisfy a claim (receive) for blocking instruction `in`;
  /// blocks the process otherwise.
  bool try_receive(Process& proc, Claim& claim, const Instruction& in);
  void match();
  /// Releases a collective once every process has arrived at it.
  void resolve_collectives();
  /// Lane `lane`'s result, its loss slots turned into loss maps.
  [[nodiscard]] SimulationResult collect(int lane);
  /// Ends a lane whose own draw failed; the batch goes on for the others.
  void fail_lane(int lane);
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
  int lanes_;
  Scoreboard scoreboard_;
  std::vector<Process> processes_;
  /// Per-lane values, `lanes_` entries per process, process after process.
  std::vector<LaneValues> values_;
  static constexpr std::uint32_t kNoLosses = UINT32_MAX;
  /// Per process and loss slot (Program::loss_ids), slot after slot: the
  /// losses_ block of its blocked time, or kNoLosses until the process
  /// first completes a blocking instruction of that slot. A block follows
  /// each such completion, so a run past kMaxDirectiveSteps has made at
  /// most that many and 32 bits index them.
  std::vector<std::uint32_t> loss_blocks_;
  /// Blocked time, `lanes_` values per block, in the order blocks were
  /// made. Only the slots a process reaches hold values, so a model's
  /// blocking directives cost each process 4 bytes, not 8 per lane.
  std::vector<double> losses_;
  std::vector<double> draws_;   ///< a collective's draw per lane, reused
  /// Per lane: whether the receive being delivered found its message
  /// already arrived.
  std::vector<unsigned char> late_;
  std::vector<double> latest_;  ///< a collective's last arrival per lane
  /// The error a lane's own draw raised, or null; empty until one fails.
  std::vector<std::exception_ptr> lane_errors_;
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

/// Convenience: one full evaluation per lane of `sampler`, in lane order.
[[nodiscard]] std::vector<SimulationResult> simulate_lanes(
    const Model& model, int numprocs, const Bindings& overrides,
    DeliverySampler& sampler);

/// Convenience: one full evaluation, the batch of one. Throws
/// std::logic_error when `sampler` has more than one lane.
[[nodiscard]] SimulationResult simulate(const Model& model, int numprocs,
                                        const Bindings& overrides,
                                        DeliverySampler& sampler);

}  // namespace pevpm
