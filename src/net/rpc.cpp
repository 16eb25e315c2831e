#include "net/rpc.h"

#include <cassert>

namespace ddbs {

RpcEndpoint::RpcEndpoint(SiteId self, Network& net, Scheduler& sched)
    : self_(self), net_(net), sched_(sched) {}

void RpcEndpoint::start(RequestHandler handler) {
  handler_ = std::move(handler);
  net_.register_site(self_, [this](Envelope& env) { on_envelope(env); });
}

uint64_t RpcEndpoint::send_request(SiteId to, Payload payload, SimTime timeout,
                                   ResponseCb cb) {
  const uint64_t id = expect_reply(std::move(cb));
  arm_timeout(id, timeout);
  send_registered(id, to, std::move(payload));
  return id;
}

uint64_t RpcEndpoint::expect_reply(ResponseCb cb) {
  const uint64_t id = next_rpc_++;
  Pending p;
  p.cb = std::move(cb);
  p.resume_span = tracer_ ? tracer_->current() : 0;
  pending_.insert(id, std::move(p));
  return id;
}

void RpcEndpoint::arm_timeout(uint64_t rpc_id, SimTime timeout) {
  Pending* p = pending_.find(rpc_id);
  if (p == nullptr || p->timeout_ev != 0) return;
  p->timeout_ev = sched_.timeout(timeout, [this, rpc_id]() {
    Pending* it = pending_.find(rpc_id);
    if (it == nullptr) return;
    ResponseCb cb = std::move(it->cb);
    const SpanId resume = it->resume_span;
    pending_.erase(rpc_id);
    SpanScope scope(tracer_, resume);
    cb(Code::kTimeout, nullptr);
  });
}

void RpcEndpoint::send_registered(uint64_t rpc_id, SiteId to,
                                  Payload payload) {
  net_.send(Envelope{rpc_id, /*is_response=*/false, self_, to,
                     std::move(payload), tracer_ ? tracer_->current() : 0});
}

void RpcEndpoint::forward(const Envelope& request, uint64_t rpc_id,
                          SiteId to, Payload payload) {
  assert(!request.is_response);
  Envelope env{rpc_id, /*is_response=*/false, self_, to, std::move(payload),
               request.span};
  env.reply_to = requester(request);
  net_.send(std::move(env));
}

void RpcEndpoint::send_oneway(SiteId to, Payload payload) {
  net_.send(Envelope{0, false, self_, to, std::move(payload),
                     tracer_ ? tracer_->current() : 0});
}

void RpcEndpoint::respond(const Envelope& request, Payload payload) {
  assert(!request.is_response);
  if (request.rpc_id == 0) return; // send_oneway
  net_.send(Envelope{request.rpc_id, /*is_response=*/true, self_,
                     requester(request), std::move(payload), request.span});
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

void RpcEndpoint::on_envelope(Envelope& env) {
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
