from hypothesis import settings

settings.register_profile("suite", max_examples=40, deadline=None, derandomize=True)
# a deeper run of the kernel properties and the eval contract:
# pytest --hypothesis-profile=deep
settings.register_profile("deep", max_examples=400, deadline=None, derandomize=True)
settings.load_profile("suite")
