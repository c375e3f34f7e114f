//! [`Timed`]: a session wrapper that records a span around every call
//! the driver makes into the wrapped session. It is how the traced run
//! sees the session layer from outside: no probe lives in the crates.

use crate::spans::Tracer;
use rsr_core::{Frame, Session};

/// Which protocol a span belongs to (the prefix of its name).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    Emd,
    Semd,
    Gap,
    Cont,
}

/// Which half of the pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Alice,
    Bob,
}

/// Which call into the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// Building the session (Alice's sketch build happens here).
    New,
    PollSend,
    OnFrame,
}

/// The protocols whose sessions the harness can wrap on both endpoints.
pub const ONESHOT_PROTOS: [Proto; 3] = [Proto::Emd, Proto::Semd, Proto::Gap];

impl Proto {
    pub fn token(self) -> &'static str {
        match self {
            Proto::Emd => "emd",
            Proto::Semd => "semd",
            Proto::Gap => "gap",
            Proto::Cont => "cont",
        }
    }
}

/// The span name of one call: `<proto>.<side>.<call>`.
pub fn span_name(proto: Proto, side: Side, call: Call) -> &'static str {
    use Call::*;
    use Proto::*;
    use Side::*;
    match (proto, side, call) {
        (Emd, Alice, New) => "emd.alice.new",
        (Emd, Alice, PollSend) => "emd.alice.poll_send",
        (Emd, Alice, OnFrame) => "emd.alice.on_frame",
        (Emd, Bob, New) => "emd.bob.new",
        (Emd, Bob, PollSend) => "emd.bob.poll_send",
        (Emd, Bob, OnFrame) => "emd.bob.on_frame",
        (Semd, Alice, New) => "semd.alice.new",
        (Semd, Alice, PollSend) => "semd.alice.poll_send",
        (Semd, Alice, OnFrame) => "semd.alice.on_frame",
        (Semd, Bob, New) => "semd.bob.new",
        (Semd, Bob, PollSend) => "semd.bob.poll_send",
        (Semd, Bob, OnFrame) => "semd.bob.on_frame",
        (Gap, Alice, New) => "gap.alice.new",
        (Gap, Alice, PollSend) => "gap.alice.poll_send",
        (Gap, Alice, OnFrame) => "gap.alice.on_frame",
        (Gap, Bob, New) => "gap.bob.new",
        (Gap, Bob, PollSend) => "gap.bob.poll_send",
        (Gap, Bob, OnFrame) => "gap.bob.on_frame",
        (Cont, Alice, New) => "cont.alice.new",
        (Cont, Alice, PollSend) => "cont.alice.poll_send",
        (Cont, Alice, OnFrame) => "cont.alice.on_frame",
        (Cont, Bob, New) => "cont.bob.new",
        (Cont, Bob, PollSend) => "cont.bob.poll_send",
        (Cont, Bob, OnFrame) => "cont.bob.on_frame",
    }
}

/// Where a traced session's spans hang: the tracer, the parent span (the
/// settle or step that caused the session) and the settle id.
#[derive(Clone, Copy)]
pub struct Scope<'t> {
    pub tracer: &'t Tracer,
    pub parent: Option<u64>,
    pub settle: u64,
}

impl<'t> Scope<'t> {
    /// Runs `f` inside a span named for `(proto, side, call)`.
    pub fn span<T>(&self, proto: Proto, side: Side, call: Call, f: impl FnOnce() -> T) -> T {
        self.span_if(proto, side, call, |_| true, f)
    }

    /// Like [`Scope::span`], but the span is recorded only when
    /// `keep(&result)`.
    pub fn span_if<T>(
        &self,
        proto: Proto,
        side: Side,
        call: Call,
        keep: impl FnOnce(&T) -> bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self
            .tracer
            .begin(span_name(proto, side, call), self.parent, Some(self.settle));
        let out = f();
        if keep(&out) {
            self.tracer.end(open);
        }
        out
    }

    /// [`Scope::span_if`] for `poll_send`: a poll that returns no frame
    /// is the driver asking "anything to say?", not work.
    pub fn poll_span<E>(
        &self,
        proto: Proto,
        side: Side,
        poll: impl FnOnce() -> Result<Option<Frame>, E>,
    ) -> Result<Option<Frame>, E> {
        self.span_if(
            proto,
            side,
            Call::PollSend,
            |out| !matches!(out, Ok(None)),
            poll,
        )
    }
}

/// A session whose every call is recorded as a span.
pub struct Timed<'t, S> {
    inner: S,
    scope: Scope<'t>,
    proto: Proto,
    side: Side,
}

impl<'t, S> Timed<'t, S> {
    /// Builds the session with `make` inside a `new` span and wraps it.
    pub fn build(scope: Scope<'t>, proto: Proto, side: Side, make: impl FnOnce() -> S) -> Self {
        let inner = scope.span(proto, side, Call::New, make);
        Timed {
            inner,
            scope,
            proto,
            side,
        }
    }

    /// Wraps a session that was built elsewhere.
    pub fn wrap(scope: Scope<'t>, proto: Proto, side: Side, inner: S) -> Self {
        Timed {
            inner,
            scope,
            proto,
            side,
        }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Session> Session for Timed<'_, S> {
    type Error = S::Error;

    fn poll_send(&mut self) -> Result<Option<Frame>, S::Error> {
        let inner = &mut self.inner;
        self.scope
            .poll_span(self.proto, self.side, || inner.poll_send())
    }

    fn on_frame(&mut self, frame: Frame) -> Result<(), S::Error> {
        let (proto, side) = (self.proto, self.side);
        let inner = &mut self.inner;
        self.scope
            .span(proto, side, Call::OnFrame, || inner.on_frame(frame))
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn protocol(&self) -> &'static str {
        self.inner.protocol()
    }
}
