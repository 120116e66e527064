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
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (out.size() > count) out.resize(count);
  return out;
}

Vm::Vm(const Model& model, int numprocs, const Bindings& overrides,
       DeliverySampler& sampler)
    : model_{model}, numprocs_{numprocs}, sampler_{sampler} {
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
bool Vm::try_receive(Process& proc, Claim& claim, int directive) {
  if (!claim.message) {
    claim.message = scoreboard_.claim(claim.stream);
  }
  if (!claim.message || !claim.message->arrival_known) {
    if (!proc.blocked) {
      proc.blocked = true;
      proc.blocked_directive = directive;
      proc.blocked_since = proc.clock;
    }
    return false;
  }
  // Deliver. The one-way distribution spans send start to receive
  // completion, so a receive that waited finishes at the arrival time; a
  // receive that found its message already delivered still pays the local
  // cost of draining it from the buffer.
  const double before = proc.clock;
  if (claim.message->arrival > proc.clock) {
    proc.clock = claim.message->arrival;
  } else {
    proc.clock += sampler_.late_recv_seconds(claim.message->bytes,
                                             scoreboard_.outstanding());
  }
  const double idle = proc.clock - before;
  proc.report.blocked += idle;
  if (idle > 0.0) proc.report.blocked_by_directive[directive] += idle;
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
        proc.clock += dt;
        proc.report.compute += dt;
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
        scoreboard_.add(stream_for(proc, peer, proc.rank, dst), bytes,
                        proc.clock, instruction.id);
        const double cost =
            sampler_.sender_seconds(bytes, scoreboard_.outstanding());
        proc.clock += cost;
        proc.report.send_overhead += cost;
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
        if (!try_receive(proc, proc.wanted, instruction.id)) return false;
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
        if (claim->pending && !try_receive(proc, *claim, instruction.id)) {
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
          proc.blocked_since = proc.clock;
          return false;
        }
        if (!proc.coll_ready) return false;  // others still on their way
        const double before = proc.clock;
        proc.clock = std::max(proc.clock, proc.coll_exit);
        const double idle = proc.clock - before;
        proc.report.blocked += idle;
        if (idle > 0.0) {
          proc.report.blocked_by_directive[instruction.id] += idle;
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
    ++executed_;
  }
  return true;
}
// LINT:hot-path end

void Vm::resolve_collectives() {
  // A collective completes only when every process has arrived at the same
  // directive of the same collective round.
  long seq = -1;
  int directive = -1;
  double latest_arrival = 0.0;
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
    latest_arrival = std::max(latest_arrival, proc.clock);
  }
  if (seq == -1) return;
  // All processes are at the same collective; sample each exit time.
  for (Process& proc : processes_) {
    const Instruction& instruction = model_.program.instructions()[proc.pc];
    if (instruction.op != Opcode::kCollective) {
      throw ModelError{"internal: collective resolution on non-collective"};
    }
    proc.coll_exit = latest_arrival +
                     sampler_.collective_seconds(instruction.collective->op,
                                                 proc.coll_bytes, numprocs_);
    proc.coll_ready = true;
  }
}

// LINT:hot-path begin (the sweep loop, and the match phase over a reused
// buffer)
void Vm::sweep(Process& proc) {
  ++sweeps_;
  if (!exec(proc)) return;  // blocked at a decision point
  proc.finished = true;
  proc.report.finish = proc.clock;
}

void Vm::match() {
  ++matches_;
  scoreboard_.take_unassigned(unassigned_);
  // The paper: delivery distributions are a function of message size and
  // the total number of messages on the scoreboard.
  const int contention = scoreboard_.outstanding();
  for (const MessageRef message : unassigned_) {
    const double sampled =
        message->depart +
        sampler_.delivery_seconds(message->bytes, contention);
    // In-order delivery per stream: never ahead of an earlier message.
    message->arrival = scoreboard_.settle_arrival(message, sampled);
    message->arrival_known = true;
  }
}
// LINT:hot-path end

SimulationResult Vm::run() {
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
    // Progress means at least one directive completed somewhere; a round of
    // retries that all stay blocked is a deadlock.
    if (executed_ == executed_before) {
      SimulationResult result = collect();
      result.deadlocked = true;
      for (const Process& proc : processes_) {
        if (!proc.finished) {
          result.deadlocked_processes.push_back(proc.rank);
          result.deadlocked_directives.push_back(proc.blocked_directive);
        }
      }
      return result;
    }
  }
  return collect();
}

SimulationResult Vm::collect() const {
  SimulationResult result;
  result.processes.reserve(processes_.size());
  for (const Process& proc : processes_) {
    result.makespan = std::max(result.makespan, proc.clock);
    result.processes.push_back(proc.report);
    result.processes.back().finish = proc.clock;
  }
  result.messages = scoreboard_.total_messages();
  result.sweep_phases = sweeps_;
  result.match_phases = matches_;
  result.stream_lookups = scoreboard_.stream_lookups();
  return result;
}

SimulationResult simulate(const Model& model, int numprocs,
                          const Bindings& overrides,
                          DeliverySampler& sampler) {
  return Vm{model, numprocs, overrides, sampler}.run();
}

}  // namespace pevpm
