"""RPR004 fixture: request events emitted through the engine helper."""


class Engine:
    def declared(self, request, now):
        self._event(request, "admit", now, tier="cpu")

    def undeclared(self, request, now):
        self._event(request, "stall", now, tier="tpu")
