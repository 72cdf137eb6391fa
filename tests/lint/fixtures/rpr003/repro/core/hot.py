"""RPR003 fixtures: unguarded vs guarded allocating telemetry."""


class Engine:
    def bad_fstring(self, n):
        self.tracer.count(f"pcie.{n}_bytes", n)

    def bad_dict(self, now):
        self.metrics.flight.record(1, "admit", now, attrs={"k": 1})

    def bad_str(self, request):
        self.tracer.instant("abort", reason=str(request))

    def good_guarded(self, n):
        if self.tracer.enabled:
            self.tracer.count(f"pcie.{n}_bytes", n)

    def good_early_bail(self, n):
        if not self.tracer.enabled:
            return
        self.tracer.count(f"pcie.{n}_bytes", n)

    def good_constant_args(self, n):
        self.tracer.count("pcie.h2d_bytes", n)
