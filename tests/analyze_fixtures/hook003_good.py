"""GOOD fixture: every sanctioned guard shape."""


class Machine:
    def __init__(self):
        self.fault_injector = None
        self.on_nvm_commit = None

    def step(self):
        if self.fault_injector is not None:
            self.fault_injector.on_step(1)

    def commit(self):
        if self.on_nvm_commit is not None and self.ready:
            self.on_nvm_commit(1, {})

    def aliased(self, controller):
        injector = controller.fault_injector
        if injector is None:
            return
        injector.observe(2)

    def llc_miss(self, line_addr, domain_id):
        if domain_id is not None and self.hierarchy.on_llc_miss is not None:
            self.hierarchy.on_llc_miss(line_addr, False, None, domain_id)

    def asserted(self):
        assert self.fault_injector is not None
        self.fault_injector.on_step(3)
