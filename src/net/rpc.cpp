#include "net/rpc.h"

#include <cassert>

namespace ddbs {

RpcEndpoint::RpcEndpoint(SiteId self, Network& net, Scheduler& sched)
    : self_(self), net_(net), sched_(sched) {}

void RpcEndpoint::start(RequestHandler handler) {
  handler_ = std::move(handler);
  net_.register_site(self_, [this](const Envelope& env) { on_envelope(env); });
}

uint64_t RpcEndpoint::send_request(SiteId to, Payload payload, SimTime timeout,
                                   ResponseCb cb) {
  const uint64_t id = next_rpc_++;
  const SpanId ctx = tracer_ ? tracer_->current() : 0;
  Pending p;
  p.cb = std::move(cb);
  p.resume_span = ctx;
  p.timeout_ev = sched_.timeout(timeout, [this, id]() {
    Pending* it = pending_.find(id);
    if (it == nullptr) return;
    ResponseCb cb = std::move(it->cb);
    const SpanId resume = it->resume_span;
    pending_.erase(id);
    SpanScope scope(tracer_, resume);
    cb(Code::kTimeout, nullptr);
  });
  pending_.insert(id, std::move(p));
  net_.send(Envelope{id, /*is_response=*/false, self_, to, std::move(payload),
                     ctx});
  return id;
}

void RpcEndpoint::send_oneway(SiteId to, Payload payload) {
  net_.send(Envelope{0, false, self_, to, std::move(payload),
                     tracer_ ? tracer_->current() : 0});
}

void RpcEndpoint::respond(const Envelope& request, Payload payload) {
  assert(!request.is_response);
  net_.send(Envelope{request.rpc_id, /*is_response=*/true, self_,
                     request.from, std::move(payload), request.span});
}

void RpcEndpoint::cancel_request(uint64_t rpc_id) {
  Pending* it = pending_.find(rpc_id);
  if (it == nullptr) return;
  sched_.cancel(it->timeout_ev);
  pending_.erase(rpc_id);
}

void RpcEndpoint::reset() {
  pending_.for_each(
      [this](uint64_t, Pending& p) { sched_.cancel(p.timeout_ev); });
  pending_.clear();
}

void RpcEndpoint::on_envelope(const Envelope& env) {
  if (!env.is_response) {
    if (handler_) {
      // The handler runs under the sender's span, so per-site DM work
      // (lock waits, stages, applies) nests under the coordinator.
      SpanScope scope(tracer_, env.span);
      handler_(env);
    }
    return;
  }
  Pending* it = pending_.find(env.rpc_id);
  if (it == nullptr) return; // late response; requester moved on
  sched_.cancel(it->timeout_ev);
  ResponseCb cb = std::move(it->cb);
  const SpanId resume = it->resume_span;
  pending_.erase(env.rpc_id);
  SpanScope scope(tracer_, resume);
  cb(Code::kOk, &env.payload);
}

} // namespace ddbs
