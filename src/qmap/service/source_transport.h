#ifndef QMAP_SERVICE_SOURCE_TRANSPORT_H_
#define QMAP_SERVICE_SOURCE_TRANSPORT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qmap/core/translator.h"
#include "qmap/service/resilience.h"

namespace qmap {

class Trace;

/// Where a source's per-query translation actually runs. Every source in a
/// TranslationService sits behind this interface, so the service's fan-out,
/// resilience guards, caching, and partial-result merge are identical
/// whether the source's rule matching happens in this process
/// (InProcessTransport wrapping a Translator) or on a remote shard worker
/// (RemoteTransport speaking the wire protocol). A dead or slow remote
/// surfaces as an Unavailable/DeadlineExceeded status — exactly the failure
/// vocabulary the resilience layer already degrades around, which is what
/// makes "worker died" behave like "breaker tripped".
class SourceTransport {
 public:
  virtual ~SourceTransport() = default;

  /// Translates the full query (view constraints already conjoined) for
  /// this transport's source. `trace`/`parent_span` attach per-call spans;
  /// `cancel` carries the remaining deadline budget for propagation.
  /// Either of trace/cancel may be null.
  virtual Result<Translation> Translate(const Query& full, Trace* trace,
                                        uint64_t parent_span,
                                        const CancelToken* cancel) = 0;

  /// True when one TranslateMany call can carry both this transport's
  /// source and `other`'s — e.g. two remote sources on the same worker,
  /// reached through the same client. TranslationService groups its sources
  /// by this once, at registration. The default shares with nothing.
  virtual bool SharesCallWith(const SourceTransport& other) const {
    (void)other;
    return false;
  }

  /// Translates `full` for every source in `members` in one call — each
  /// member shares this transport's call (SharesCallWith) — and returns one
  /// result per member, in order. Only transports that share calls are
  /// asked; the default, for those that share with nothing, fails every
  /// member.
  virtual std::vector<Result<Translation>> TranslateMany(
      std::span<SourceTransport* const> members, const Query& full,
      Trace* trace, uint64_t parent_span, const CancelToken* cancel) {
    (void)full;
    (void)trace;
    (void)parent_span;
    (void)cancel;
    return std::vector<Result<Translation>>(
        members.size(),
        Status::Internal("transport " + endpoint() + " shares no calls"));
  }

  /// The mapping spec when translation is local (read by the containment
  /// pruning pre-pass); null when the rules live elsewhere.
  virtual const MappingSpec* spec() const { return nullptr; }

  /// Human-readable location for scoreboards and traces, e.g. "local" or
  /// "127.0.0.1:7001".
  virtual std::string endpoint() const { return "local"; }
};

/// The classic single-process path: a Translator invoked inline on the
/// calling (or pool) thread.
class InProcessTransport : public SourceTransport {
 public:
  explicit InProcessTransport(Translator translator)
      : translator_(std::move(translator)) {}

  Result<Translation> Translate(const Query& full, Trace* trace,
                                uint64_t parent_span,
                                const CancelToken* cancel) override {
    (void)cancel;  // deadline enforcement wraps the call (resilience guard)
    return translator_.Translate(full, trace, parent_span);
  }

  const MappingSpec* spec() const override { return &translator_.spec(); }

  const Translator& translator() const { return translator_; }

 private:
  Translator translator_;
};

}  // namespace qmap

#endif  // QMAP_SERVICE_SOURCE_TRANSPORT_H_
