"""BAD fixture: optional hooks invoked without a None guard."""


class Machine:
    def __init__(self):
        self.fault_injector = None
        self.on_nvm_commit = None

    def step(self):
        self.fault_injector.on_step(1)

    def commit(self):
        self.on_nvm_commit(1, {})

    def aliased(self, controller):
        injector = controller.fault_injector
        injector.observe(2)

    def llc_miss(self, line_addr):
        self.hierarchy.on_llc_miss(line_addr, False, None, 0)
