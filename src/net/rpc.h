// Per-site RPC endpoint: request/response correlation plus per-request
// timeouts. A timeout is how the protocol *suspects* a site failure -- the
// transport never says "down" explicitly (fail-stop, no failure oracle).
#pragma once

#include <functional>

#include "common/u64_table.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace ddbs {

class RpcEndpoint {
 public:
  // Called for every incoming request envelope, which it may move from.
  using RequestHandler = std::function<void(Envelope&)>;
  // Called at most once per registered reply (send_request, expect_reply):
  // with kOk and the response payload, or with kTimeout and nullptr; never
  // once the request is cancelled or the endpoint reset.
  using ResponseCb = std::function<void(Code, const Payload*)>;

  RpcEndpoint(SiteId self, Network& net, Scheduler& sched);

  void start(RequestHandler handler);

  // Optional causal span propagation: outgoing envelopes are stamped with
  // the tracer's current span, and handlers / response callbacks /
  // timeout callbacks run scoped to the span they belong to.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  uint64_t send_request(SiteId to, Payload payload, SimTime timeout,
                        ResponseCb cb);
  // Chained requests, where one site forwards a request on to the next
  // and each answers the requester directly. expect_reply registers a
  // pending reply whose request another site will deliver; its timeout
  // does not run until arm_timeout (a no-op once armed or answered).
  // send_registered sends a request under such an id itself -- a
  // duplicate delivery answers an id that is already gone and is dropped.
  // forward passes a received request on to `to` under `rpc_id`; the
  // reply goes to the original requester, not to this site.
  uint64_t expect_reply(ResponseCb cb);
  void arm_timeout(uint64_t rpc_id, SimTime timeout);
  void send_registered(uint64_t rpc_id, SiteId to, Payload payload);
  void forward(const Envelope& request, uint64_t rpc_id, SiteId to,
               Payload payload);
  // Fire-and-forget (no response expected, no timeout tracked).
  void send_oneway(SiteId to, Payload payload);
  // Reply to a received request (to its requester, see forward). A
  // one-way request expects no reply, so none is sent.
  void respond(const Envelope& request, Payload payload);

  // Forget an outstanding request; its callback will never run.
  void cancel_request(uint64_t rpc_id);

  // Crash: drop every pending request without invoking callbacks (the
  // caller's state is being wiped too) and cancel their timeout events.
  void reset();

  SiteId self() const { return self_; }
  // Longest one-way delay any message has been able to draw so far.
  SimTime max_latency() const { return net_.latency().peak_max(); }
  size_t pending_count() const { return pending_.size(); }

 private:
  struct Pending {
    ResponseCb cb;
    EventId timeout_ev = 0;
    // Span to resume when the response (or timeout) arrives, so the
    // continuation stays attributed to the request's causal context.
    SpanId resume_span = 0;
  };

  void on_envelope(Envelope& env);
  // The site whose endpoint awaits the response to `request`.
  static SiteId requester(const Envelope& request) {
    return request.reply_to != kInvalidSite ? request.reply_to : request.from;
  }

  SiteId self_;
  Network& net_;
  Scheduler& sched_;
  RequestHandler handler_;
  Tracer* tracer_ = nullptr;
  uint64_t next_rpc_ = 1;
  U64Table<Pending> pending_;
};

} // namespace ddbs
