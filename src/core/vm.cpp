#include "core/vm.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pevpm {
namespace {

/// Vm::eval_rank's error, built out of line so the check inlines.
[[noreturn]] void throw_rank_out_of_range(const Expr& expr, long value,
                                          const char* what, int numprocs,
                                          int rank) {
  std::ostringstream os;
  os << what << ' ' << value << " out of range [0, " << numprocs
     << ") at process " << rank << " (" << expr.str() << ")";
  throw ModelError{os.str()};
}

}  // namespace

std::vector<std::pair<int, double>> SimulationResult::top_losses(
    std::size_t count) const {
  std::map<int, double> merged;
  for (const ProcessReport& report : processes) {
    for (const auto& [directive, loss] : report.blocked_by_directive) {
      merged[directive] += loss;
    }
  }
  std::vector<std::pair<int, double>> out(merged.begin(), merged.end());
  // Most costly first; equal losses in ascending directive id, so the
  // order is total and does not depend on the sort.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > count) out.resize(count);
  return out;
}

Vm::Vm(const Model& model, int numprocs, const Bindings& overrides,
       DeliverySampler& sampler)
    : model_{model},
      numprocs_{numprocs},
      sampler_{sampler},
      lanes_{sampler.lanes()},
      scoreboard_{sampler.lanes()} {
  if (numprocs < 1) throw ModelError{"Vm: numprocs < 1"};
  if (model.program.source() != model.body) {
    throw std::logic_error{"Vm: the model was not compiled (pevpm::compile)"};
  }
  // Names are resolved here, once: every process starts from the same
  // slot environment and differs only in procnum.
  Env base{model.variables.size()};
  model.variables.bind(base, model.parameters);
  model.variables.bind(base, overrides);
  if (const int slot = model.variables.find("numprocs"); slot >= 0) {
    base.bind(slot, static_cast<double>(numprocs));
  }
  const int procnum = model.variables.find("procnum");
  processes_.resize(numprocs);
  for (int r = 0; r < numprocs; ++r) {
    Process& proc = processes_[r];
    proc.rank = r;
    proc.env = base;
    if (procnum >= 0) proc.env.bind(procnum, static_cast<double>(r));
    proc.handles.resize(model.handles.size());
  }
  // From here on only loops write a process's variables, so the operands
  // the program caches keep one value per process for the whole run.
  operand_cache_.resize(
      static_cast<std::size_t>(numprocs) *
      static_cast<std::size_t>(model.program.cached_operands()));
  values_.resize(static_cast<std::size_t>(numprocs) *
                 static_cast<std::size_t>(lanes_));
  loss_blocks_.assign(static_cast<std::size_t>(numprocs) *
                          model.program.loss_ids().size(),
                      kNoLosses);
  draws_.resize(static_cast<std::size_t>(lanes_));
  late_.resize(static_cast<std::size_t>(lanes_));
  latest_.resize(static_cast<std::size_t>(lanes_));
}

Vm::LaneValues* Vm::lanes_of(const Process& proc) {
  return &values_[static_cast<std::size_t>(proc.rank) *
                  static_cast<std::size_t>(lanes_)];
}

double* Vm::losses_of(const Process& proc, std::uint32_t slot) {
  std::uint32_t& block =
      loss_blocks_[static_cast<std::size_t>(proc.rank) *
                       model_.program.loss_ids().size() +
                   slot];
  if (block == kNoLosses) [[unlikely]] block = add_loss_block();
  return &losses_[static_cast<std::size_t>(block) *
                  static_cast<std::size_t>(lanes_)];
}

std::uint32_t Vm::add_loss_block() {
  const std::size_t lanes = static_cast<std::size_t>(lanes_);
  const auto block = static_cast<std::uint32_t>(losses_.size() / lanes);
  losses_.resize(losses_.size() + lanes, 0.0);
  return block;
}

void Vm::fail_lane(int lane) {
  lane_errors_.resize(static_cast<std::size_t>(lanes_));
  std::exception_ptr& error = lane_errors_[static_cast<std::size_t>(lane)];
  if (!error) error = std::current_exception();
}

// LINT:hot-path begin (operand evaluation and stream resolution: a cached
// operand or stream is one load)
Vm::CachedOperand& Vm::cached(const Process& proc, int cache) {
  return operand_cache_[static_cast<std::size_t>(proc.rank) *
                            static_cast<std::size_t>(
                                model_.program.cached_operands()) +
                        static_cast<std::size_t>(cache)];
}

double Vm::eval(const Process& proc, const Expr& expr, int cache) {
  if (cache < 0) return expr.eval(proc.env);
  CachedOperand& entry = cached(proc, cache);
  if (!entry.known) {
    entry.value = expr.eval(proc.env);
    entry.known = true;
  }
  return entry.value;
}

long Vm::eval_int(const Process& proc, const Expr& expr, int cache,
                  const char* what) {
  return checked_int(eval(proc, expr, cache), expr, what);
}

std::uint32_t Vm::stream_for(const Process& proc, int cache, int src,
                             int dst) {
  if (cache < 0) return scoreboard_.stream_of(src, dst);
  CachedOperand& entry = cached(proc, cache);
  if (entry.stream == Scoreboard::kNoStream) {
    entry.stream = scoreboard_.stream_of(src, dst);
  }
  return entry.stream;
}

int Vm::eval_rank(const Process& proc, const Expr& expr, int cache,
                  const char* what) {
  const long value = eval_int(proc, expr, cache, what);
  if (value < 0 || value >= numprocs_) {
    throw_rank_out_of_range(expr, value, what, numprocs_, proc.rank);
  }
  return static_cast<int>(value);
}
// LINT:hot-path end

Vm::Claim& Vm::reuse_handle(Process& proc, const MessageNode& msg) const {
  Claim& claim = proc.handles[static_cast<std::size_t>(msg.handle_slot)];
  if (claim.active && claim.pending) {
    throw ModelError{"handle '" + msg.handle + "' reused at process " +
                     std::to_string(proc.rank) +
                     " while its receive is still pending"};
  }
  return claim;
}

// LINT:hot-path begin (per-directive evaluation: names are slots and
// messages come from the scoreboard's pool)
void Vm::account_blocked(LaneValues& lane, double& loss, double idle) {
  lane.blocked += idle;
  if (idle > 0.0) loss += idle;
}

bool Vm::try_receive(Process& proc, Claim& claim, const Instruction& in) {
  if (!claim.message) {
    claim.message = scoreboard_.claim(claim.stream);
  }
  if (!claim.message || !claim.message->arrival_known) {
    if (!proc.blocked) {
      proc.blocked = true;
      proc.blocked_directive = in.id;
    }
    return false;
  }
  // Deliver. The one-way distribution spans send start to receive
  // completion, so a receive that waited finishes at the arrival time; a
  // receive that found its message already delivered still pays the local
  // cost of draining it from the buffer. Which of the two it is depends on
  // the lane's times, so each lane takes its own.
  LaneValues* values = lanes_of(proc);
  double* losses = losses_of(proc, in.loss);
  const double* arrival = scoreboard_.arrivals(claim.message);
  bool any_late = false;
  for (int lane = 0; lane < lanes_; ++lane) {
    LaneValues& v = values[lane];
    const bool late = !(arrival[lane] > v.clock);
    late_[static_cast<std::size_t>(lane)] = late ? 1 : 0;
    if (late) {
      any_late = true;
    } else {
      const double before = v.clock;
      v.clock = arrival[lane];
      account_blocked(v, losses[lane], v.clock - before);
    }
  }
  if (any_late) {
    try {
      sampler_.late_recv_seconds(
          claim.message->bytes, scoreboard_.outstanding(), late_.data(),
          [&](int lane, double cost) {
            LaneValues& v = values[lane];
            const double before = v.clock;
            v.clock += cost;
            account_blocked(v, losses[lane], v.clock - before);
          });
    } catch (...) {
      // Only the late lanes drew. Lane 0's error is the batch's whatever
      // happens later, so it ends the run at once; another lane's waits
      // until the lanes below it have finished or failed.
      for (int lane = 0; lane < lanes_; ++lane) {
        if (late_[static_cast<std::size_t>(lane)] != 0) fail_lane(lane);
      }
      if (late_.front() != 0) throw;
    }
  }
  scoreboard_.consume(claim.message);
  claim.message = nullptr;
  claim.pending = false;
  proc.blocked = false;
  return true;
}

net::Bytes Vm::message_bytes(const Process& proc, const Instruction& in) {
  const long size_value =
      eval_int(proc, *in.message->size, in.cache[0], "message size");
  if (size_value < 0) throw ModelError{"message with negative size"};
  return static_cast<net::Bytes>(size_value);
}

bool Vm::exec(Process& proc) {
  const std::vector<Instruction>& code = model_.program.instructions();
  while (proc.pc < code.size()) {
    const Instruction& instruction = code[proc.pc];
    std::uint32_t next = proc.pc + 1;
    switch (instruction.op) {
      case Opcode::kSerial: {
        const SerialNode& serial = *instruction.serial;
        const double dt =
            checked_finite(eval(proc, *serial.seconds, instruction.cache[0]),
                           *serial.seconds, "serial time");
        if (dt < 0) throw ModelError{"Serial directive with negative time"};
        LaneValues* values = lanes_of(proc);
        for (int lane = 0; lane < lanes_; ++lane) values[lane].clock += dt;
        proc.compute += dt;
        break;
      }
      case Opcode::kSend:
      case Opcode::kIsend: {
        const MessageNode& msg = *instruction.message;
        const int peer = instruction.cache[1];
        const net::Bytes bytes = message_bytes(proc, instruction);
        const int dst = eval_rank(proc, *msg.peer, peer, "send to rank");
        if (dst == proc.rank) {
          throw ModelError{"message sent to self at process " +
                           std::to_string(proc.rank)};
        }
        const MessageRef message = scoreboard_.add(
            stream_for(proc, peer, proc.rank, dst), bytes, instruction.id);
        LaneValues* values = lanes_of(proc);
        double* depart = scoreboard_.departs(message);
        sampler_.sender_seconds(
            bytes, scoreboard_.outstanding(), [&](int lane, double cost) {
              LaneValues& v = values[lane];
              depart[lane] = v.clock;
              v.clock += cost;
              v.send_overhead += cost;
            });
        if (instruction.op == Opcode::kIsend && msg.handle_slot >= 0) {
          Claim& claim = reuse_handle(proc, msg);
          claim = Claim{};
          claim.pending = false;  // eager: locally complete at once
          claim.active = true;
        }
        break;
      }
      case Opcode::kRecv: {
        const MessageNode& msg = *instruction.message;
        const int peer = instruction.cache[1];
        (void)message_bytes(proc, instruction);
        if (!proc.blocked) {
          proc.wanted = Claim{};
          const int src = eval_rank(proc, *msg.peer, peer, "recv from rank");
          proc.wanted.stream = stream_for(proc, peer, src, proc.rank);
        }
        if (!try_receive(proc, proc.wanted, instruction)) return false;
        break;
      }
      case Opcode::kIrecv: {
        const MessageNode& msg = *instruction.message;
        const int peer = instruction.cache[1];
        (void)message_bytes(proc, instruction);
        if (msg.handle_slot < 0) throw ModelError{"irecv requires a handle"};
        const int src = eval_rank(proc, *msg.peer, peer, "irecv from rank");
        Claim& claim = reuse_handle(proc, msg);
        claim = Claim{};
        claim.active = true;
        claim.stream = stream_for(proc, peer, src, proc.rank);
        claim.message = scoreboard_.claim(claim.stream);
        break;
      }
      case Opcode::kWait: {
        const WaitNode& wait = *instruction.wait;
        Claim* claim = wait.handle_slot < 0
                           ? nullptr
                           : &proc.handles[static_cast<std::size_t>(
                                 wait.handle_slot)];
        if (claim == nullptr || !claim->active) {
          throw ModelError{"wait on unknown handle '" + wait.handle + "'"};
        }
        // A completed send (or already-satisfied op) completes at once.
        if (claim->pending && !try_receive(proc, *claim, instruction)) {
          return false;
        }
        claim->active = false;
        break;
      }
      case Opcode::kCollective: {
        const CollectiveNode& coll = *instruction.collective;
        if (!proc.blocked) {
          // First arrival: record operands, then wait for everyone.
          long size_value = 0;
          if (coll.size) {
            size_value = eval_int(proc, *coll.size, instruction.cache[0],
                                  "collective size");
          }
          if (size_value < 0) throw ModelError{"collective with negative size"};
          if (coll.root) {
            (void)eval_rank(proc, *coll.root, instruction.cache[1],
                            "collective root rank");
          }
          proc.coll_bytes = static_cast<net::Bytes>(size_value);
          proc.at_collective = true;
          proc.coll_ready = false;
          proc.blocked = true;
          proc.blocked_directive = instruction.id;
          return false;
        }
        if (!proc.coll_ready) return false;  // others still on their way
        LaneValues* values = lanes_of(proc);
        double* losses = losses_of(proc, instruction.loss);
        for (int lane = 0; lane < lanes_; ++lane) {
          LaneValues& v = values[lane];
          const double before = v.clock;
          v.clock = std::max(v.clock, v.coll_exit);
          account_blocked(v, losses[lane], v.clock - before);
        }
        proc.at_collective = false;
        proc.coll_ready = false;
        proc.blocked = false;
        ++proc.coll_seq;
        break;
      }
      case Opcode::kBranch: {
        const RunonNode& runon = *instruction.runon;
        const bool taken =
            eval(proc, *runon.condition, instruction.cache[0]) != 0.0;
        if (!taken) next = instruction.target;
        break;
      }
      case Opcode::kJump:
        next = instruction.target;
        break;
      case Opcode::kLoopEnter: {
        const LoopNode& loop = *instruction.loop;
        const long n =
            eval_int(proc, *loop.count, instruction.cache[0], "loop count");
        if (n <= 0 || loop.body.empty()) {
          next = instruction.target;
          break;
        }
        proc.loops.push_back(Frame{n, 0});
        if (loop.var_slot >= 0) proc.env.bind(loop.var_slot, 0.0);
        break;
      }
      case Opcode::kLoopNext: {
        Frame& frame = proc.loops.back();
        if (--frame.remaining > 0) {
          if (instruction.loop->var_slot >= 0) {
            proc.env.bind(instruction.loop->var_slot,
                          static_cast<double>(++frame.iteration));
          }
          next = instruction.target;
        } else {
          proc.loops.pop_back();
        }
        break;
      }
    }
    proc.pc = next;
    if (++executed_ > kMaxDirectiveSteps) [[unlikely]] {
      throw ModelError{"model exceeds the budget of " +
                       std::to_string(kMaxDirectiveSteps) +
                       " directive steps"};
    }
  }
  return true;
}
// LINT:hot-path end

void Vm::resolve_collectives() {
  // A collective completes only when every process has arrived at the same
  // directive of the same collective round.
  long seq = -1;
  int directive = -1;
  for (const Process& proc : processes_) {
    if (proc.finished || !proc.at_collective || proc.coll_ready) return;
    if (seq == -1) {
      seq = proc.coll_seq;
      directive = proc.blocked_directive;
    } else if (proc.coll_seq != seq) {
      return;  // someone is a round behind; let them catch up
    } else if (proc.blocked_directive != directive) {
      throw ModelError{
          "collective mismatch: processes reached different collectives"};
    }
  }
  if (seq == -1) return;
  // All processes are at the same collective: each lane releases them
  // after its last arrival, each process at its own sampled exit time.
  std::fill(latest_.begin(), latest_.end(), 0.0);
  for (Process& proc : processes_) {
    const LaneValues* values = lanes_of(proc);
    for (int lane = 0; lane < lanes_; ++lane) {
      latest_[static_cast<std::size_t>(lane)] =
          std::max(latest_[static_cast<std::size_t>(lane)], values[lane].clock);
    }
  }
  for (Process& proc : processes_) {
    const Instruction& instruction = model_.program.instructions()[proc.pc];
    if (instruction.op != Opcode::kCollective) {
      throw ModelError{"internal: collective resolution on non-collective"};
    }
    sampler_.collective_seconds(instruction.collective->op, proc.coll_bytes,
                                numprocs_, draws_);
    LaneValues* values = lanes_of(proc);
    for (int lane = 0; lane < lanes_; ++lane) {
      values[lane].coll_exit = latest_[static_cast<std::size_t>(lane)] +
                               draws_[static_cast<std::size_t>(lane)];
    }
    proc.coll_ready = true;
  }
}

// LINT:hot-path begin (the sweep loop, and the match phase over a reused
// buffer)
void Vm::sweep(Process& proc) {
  ++sweeps_;
  if (exec(proc)) proc.finished = true;
}

void Vm::match() {
  ++matches_;
  scoreboard_.take_unassigned(unassigned_);
  // The paper: delivery distributions are a function of message size and
  // the total number of messages on the scoreboard.
  const int contention = scoreboard_.outstanding();
  for (const MessageRef message : unassigned_) {
    const double* depart = scoreboard_.departs(message);
    sampler_.delivery_seconds(
        message->bytes, contention, [&](int lane, double seconds) {
          // In-order delivery per stream: never ahead of an earlier
          // message.
          scoreboard_.settle_arrival(message, depart[lane] + seconds, lane);
        });
    message->arrival_known = true;
  }
}
// LINT:hot-path end

std::vector<SimulationResult> Vm::run() {
  bool deadlocked = false;
  try {
    for (Process& proc : processes_) sweep(proc);
    for (;;) {
      bool all_finished = true;
      for (const Process& proc : processes_) {
        if (!proc.finished) {
          all_finished = false;
          break;
        }
      }
      if (all_finished) break;

      match();
      resolve_collectives();
      const std::uint64_t executed_before = executed_;
      for (Process& proc : processes_) {
        if (proc.finished || !proc.blocked) continue;
        sweep(proc);
      }
      // Progress means at least one directive completed somewhere; a round
      // of retries that all stay blocked is a deadlock.
      if (executed_ == executed_before) {
        deadlocked = true;
        break;
      }
    }
  } catch (...) {
    // The error ends every lane still running, so lane 0 fails with it
    // unless its own draw failed earlier.
    if (!lane_errors_.empty() && lane_errors_.front()) {
      std::rethrow_exception(lane_errors_.front());
    }
    throw;
  }
  for (const std::exception_ptr& error : lane_errors_) {
    if (error) std::rethrow_exception(error);
  }
  std::vector<SimulationResult> results(static_cast<std::size_t>(lanes_));
  for (int lane = 0; lane < lanes_; ++lane) {
    SimulationResult& result = results[static_cast<std::size_t>(lane)];
    result = collect(lane);
    if (!deadlocked) continue;
    result.deadlocked = true;
    for (const Process& proc : processes_) {
      if (!proc.finished) {
        result.deadlocked_processes.push_back(proc.rank);
        result.deadlocked_directives.push_back(proc.blocked_directive);
      }
    }
  }
  return results;
}

SimulationResult Vm::collect(int lane) {
  SimulationResult result;
  result.processes.reserve(processes_.size());
  const std::vector<int>& ids = model_.program.loss_ids();
  const std::uint32_t* blocks = loss_blocks_.data();
  for (const Process& proc : processes_) {
    const LaneValues& v = lanes_of(proc)[lane];
    result.makespan = std::max(result.makespan, v.clock);
    ProcessReport& report = result.processes.emplace_back();
    report.finish = v.clock;
    report.compute = proc.compute;
    report.send_overhead = v.send_overhead;
    report.blocked = v.blocked;
    // A slot is non-zero exactly when some positive idle time reached it,
    // and the ids ascend, so each entry goes in at the end.
    for (std::size_t slot = 0; slot < ids.size(); ++slot, ++blocks) {
      if (*blocks == kNoLosses) continue;
      const double loss = losses_[static_cast<std::size_t>(*blocks) *
                                      static_cast<std::size_t>(lanes_) +
                                  static_cast<std::size_t>(lane)];
      if (loss != 0.0) {
        report.blocked_by_directive.emplace_hint(
            report.blocked_by_directive.end(), ids[slot], loss);
      }
    }
  }
  result.messages = scoreboard_.total_messages();
  result.sweep_phases = sweeps_;
  result.match_phases = matches_;
  result.stream_lookups = scoreboard_.stream_lookups();
  return result;
}

std::vector<SimulationResult> simulate_lanes(const Model& model, int numprocs,
                                             const Bindings& overrides,
                                             DeliverySampler& sampler) {
  return Vm{model, numprocs, overrides, sampler}.run();
}

SimulationResult simulate(const Model& model, int numprocs,
                          const Bindings& overrides,
                          DeliverySampler& sampler) {
  if (sampler.lanes() != 1) {
    throw std::logic_error{"simulate: the sampler has more than one lane"};
  }
  return std::move(simulate_lanes(model, numprocs, overrides, sampler).front());
}

}  // namespace pevpm
